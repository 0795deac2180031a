"""Command-line driver: predict, evaluate, and batch workflows.

Exit codes: 0 success, 2 for unreadable or inconsistent inputs, 3 when a
clique or time budget is exceeded. All outputs are UTF-8 text; reports are
byte-identical across runs unless --timing is requested.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import ExitStack
from dataclasses import replace
from fractions import Fraction
from functools import cache, partial
from pathlib import Path

from .cliques import Deadline, PredictionReport, maximal_cliques, rank_predictions
from .errors import BudgetExceeded, StempError
from .fileio import (REPORT_SET_SCHEMA, graph_to_dict, read_fasta, read_reference, read_report,
                     render_graph_text, replacing, report_to_dict, sliced_report, stream_report)
from .metrics import (Metrics, ReferenceStructure, drop_noncanonical,
                      score_prediction, summarize_report)
from .profiles import ProfileConfig, build_profile_graph, resolve_profile
from .seq import Sequence
from .stems import Interval, StemGraph, as_fraction

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3

METRIC_BUCKETS = (("0.95", Fraction("0.95")), ("0.90", Fraction("0.90")),
                  ("0.85", Fraction("0.85")), ("0.80", Fraction("0.80")))
SCR_BUCKETS = (1, 5, 10, 15)


def _at_least(minimum: int):
    """argparse type: an integer of at least ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _seconds(text: str) -> float:
    """argparse type: a number of seconds, at least 0 (``inf`` bounds nothing)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value >= 0:  # NaN compares false too
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _rational(text: str) -> Fraction:
    """argparse type: an exact rational, as an integer, a decimal or p/q."""
    try:
        return as_fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


def _add_profile_options(parser: argparse.ArgumentParser):
    parser.add_argument("--profile", required=True,
                        help="builtin profile name (protein, trna, rrna5s-archaeal, "
                             "rrna5s-archaeal-general, rrna5s-bacterial, "
                             "rrna5s-eukaryotic) or a path to a profile JSON")
    parser.add_argument("-L", "--min-stem-length", type=int, default=None,
                        help="override the profile's minimum stem length")
    parser.add_argument("--sl-min", type=_rational, default=None,
                        help="override the lower Stem-Loop bound (inclusive)")
    parser.add_argument("--sl-max", type=_rational, default=None,
                        help="override the upper Stem-Loop bound (inclusive)")
    parser.add_argument("--wobble", action="store_true", default=None,
                        help="allow G-U pairs")
    parser.add_argument("--uu", action="store_true", default=None,
                        help="allow U-U pairs")
    gsl = parser.add_mutually_exclusive_group()
    gsl.add_argument("--use-gsl", dest="use_gsl", action="store_true", default=None,
                     help="assemble 5S domains with the combined-score filter (default)")
    gsl.add_argument("--no-gsl", dest="use_gsl", action="store_false",
                     help="skip domain assembly; every helix candidate is a vertex")
    parser.add_argument("--max-cliques", type=_at_least(0), default=None,
                        help="abort (exit 3) past this many maximal cliques "
                             "(with --top-k: cliques the pruned search reaches)")
    parser.add_argument("--max-seconds", type=_seconds, default=None,
                        help="abort (exit 3) past this many seconds: for predict, of "
                             "the whole run, written report included; for evaluate "
                             "and batch, of each sequence's search and ranking")


def _configure(args) -> ProfileConfig:
    cfg = resolve_profile(args.profile)
    if args.min_stem_length is not None:
        cfg = replace(cfg, min_stem_length=args.min_stem_length)
    if args.sl_min is not None or args.sl_max is not None:
        base = cfg.sl or Interval()
        cfg = replace(cfg, sl=Interval(
            lo=args.sl_min if args.sl_min is not None else base.lo,
            hi=args.sl_max if args.sl_max is not None else base.hi,
            lo_strict=base.lo_strict if args.sl_min is None else False,
            hi_strict=base.hi_strict if args.sl_max is None else False,
        ))
    pairing = cfg.pairing
    if args.wobble is not None:
        pairing = replace(pairing, wobble=args.wobble)
    if args.uu is not None:
        pairing = replace(pairing, uu=args.uu)
    cfg = replace(cfg, pairing=pairing)
    if args.use_gsl is not None:
        cfg = replace(cfg, use_gsl=args.use_gsl)
    return cfg


def run_pipeline(seq: Sequence, cfg: ProfileConfig, max_cliques: int | None = None,
                 top_k: int | None = None,
                 deadline: Deadline | None = None) -> tuple[StemGraph, PredictionReport]:
    """Graph construction, clique search, and ranking for one sequence.

    With ``top_k`` the report holds only the k best predictions, the same
    as the first k of the full report, and the search prunes below them.
    ``deadline`` bounds the search and the ranking; the caller may share it
    with its other work.
    """
    deadline = deadline or Deadline(None)
    start = time.perf_counter()
    graph = build_profile_graph(seq, cfg)
    cliques = maximal_cliques(graph, max_cliques=max_cliques, deadline=deadline, top_k=top_k)
    report = rank_predictions(graph, cliques, sequence_id=seq.id, profile=cfg.name,
                              top_k=top_k)
    deadline.check("ranking")
    return graph, replace(report, timing=time.perf_counter() - start)


def _metrics_dict(m: Metrics) -> dict:
    return {
        "tp": m.tp, "fp": m.fp, "fn": m.fn,
        "sens": str(m.sens), "ppv": str(m.ppv), "f1": str(m.f1),
        "mcc_squared": str(m.mcc_squared),
        "sens_value": float(m.sens), "ppv_value": float(m.ppv),
        "f1_value": float(m.f1), "mcc_value": m.mcc,
    }


# ---------------------------------------------------------------- predict

def _output_targets(named: list[tuple[str, str | Path | None]]) -> list[str | Path | None]:
    """The target of each (option, path) output, checked before any search:
    the resolved file that the output replaces, or the path as given for
    none (stdout) or for one that exists and is not a regular file
    (``/dev/null``, a pipe), which may be named twice. A path whose
    directory does not exist, a directory, and two options that name one
    file are input errors."""
    seen: dict[Path, str] = {}
    targets = []
    for option, path in named:
        if path and os.path.isdir(path):
            raise StempError(f"{option} {path} is a directory")
        if not path or os.path.exists(path) and not os.path.isfile(path):
            targets.append(path)
            continue
        target = Path(path).resolve()
        if not target.parent.is_dir():
            raise StempError(f"{option} {path}: its directory does not exist")
        if target in seen:
            raise StempError(f"{seen[target]} and {option} both name {path}")
        seen[target] = option
        targets.append(target)
    return targets


def _dump_paths(dump_graph: str | None, sequences: list[Sequence]) -> list[Path | None]:
    """Each record's graph dump path: ``dump_graph`` for one record, else
    ``<stem>-<id><suffix>`` beside it. A record id that cannot be part of a
    file name, or that two records share, is an input error."""
    path = dump_graph and Path(dump_graph)
    if not path or len(sequences) == 1:
        return [path] * len(sequences)
    seen = set()
    for seq in sequences:
        if {"\0", os.sep, os.altsep} & set(seq.id):
            raise StempError(f"record {seq.id!r} cannot name a graph dump file: its id "
                             f"holds a path separator or a NUL byte")
        if seq.id in seen:
            raise StempError(f"records share the id {seq.id!r}, so their graph dumps "
                             f"would share one file")
        seen.add(seq.id)
    return [path.with_name(f"{path.stem}-{seq.id}{path.suffix}") for seq in sequences]


def cmd_predict(args) -> int:
    deadline = Deadline(args.max_seconds)
    cfg = _configure(args)
    sequences = read_fasta(args.input)
    output, dot_bracket, *dumps = _output_targets(
        [("-o", args.output), ("--dot-bracket", args.dot_bracket),
         *(("--dump-graph", dump) for dump in _dump_paths(args.dump_graph, sequences))])
    graphs = []  # (dump path, graph) of each record searched with a dump path
    structures = []  # the --dot-bracket file's records

    def noted(seq: Sequence, entries):
        # the rank-1 entries come first: note the first one, or all of them
        for k, entry in enumerate(entries):
            if (entry["rank_scr"] == 1) if args.all_ties else k == 0:
                structures.append(f">{seq.id} energy={entry['energy']} scr={entry['rank_scr']} "
                                  f"dr={entry['rank_dr']}\n{seq.residues}\n{entry['dot_bracket']}")
            yield entry

    def document(seq: Sequence, dump: Path | None) -> dict:
        graph, report = run_pipeline(seq, cfg, args.max_cliques, top_k=args.top_k,
                                     deadline=deadline)
        if dump:
            graphs.append((dump, graph))
        doc = sliced_report(report, seq, args.timing, report_to_dict,
                            partial(deadline.check, "rendering"))
        if dot_bracket:
            doc["predictions"] = noted(seq, doc["predictions"])
        return doc

    # the graph dumps and the dot-bracket file are complete before any of
    # them, or the report, replaces its target
    with replacing(output) as out, ExitStack() as files:
        if len(sequences) == 1:
            stream_report(out, document(sequences[0], dumps[0]))
        else:  # each record is searched only once the one before is written
            stream_report(out, {"schema": REPORT_SET_SCHEMA,
                                "reports": map(document, sequences, dumps)})
        for dump, graph in graphs:  # text for a .txt path, else a JSON document
            files.enter_context(replacing(dump)).write(
                render_graph_text(graph) if dump.suffix == ".txt"
                else json.dumps(graph_to_dict(graph), indent=2) + "\n")
        if dot_bracket:
            files.enter_context(replacing(dot_bracket)).write("\n".join(structures) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- evaluate

def _canonical_only(reference: ReferenceStructure, rule) -> ReferenceStructure:
    """``drop_noncanonical``, with a reference that has no bases an input error."""
    if reference.bases is None:
        raise StempError(f"--ignore-noncanonical needs the bases of reference "
                         f"{reference.id!r}, and its file gives none")
    return drop_noncanonical(reference, rule)


def _scores(report: PredictionReport, reference: ReferenceStructure, metric: str) -> dict:
    """The score fields that an evaluation document and a batch row share:
    the top and best metrics and the best prediction's SCR, DR and
    multiplicity. An empty report scores the empty structure, with SCR, DR
    and multiplicity 0."""
    if report.predictions:
        summary = summarize_report(report, reference, metric=metric)
        top, best = summary.top, summary.best
        scr, dr, mult = summary.best_scr, summary.best_dr, summary.best_multiplicity
    else:
        top = best = score_prediction([], reference)
        scr = dr = mult = 0
    return {"top": _metrics_dict(top), "best": _metrics_dict(best),
            "scr_of_best": scr, "dr_of_best": dr, "multiplicity": mult}


def cmd_evaluate(args) -> int:
    if bool(args.input) == bool(args.report):
        raise StempError("evaluate needs a FASTA input or --report, not both/neither")
    cfg = _configure(args)
    (output,) = _output_targets([("-o", args.output)])
    reference = read_reference(args.reference)
    if args.report:
        report = read_report(args.report)
    else:
        sequences = read_fasta(args.input)
        if len(sequences) != 1:
            raise StempError(f"evaluate expects one sequence, found {len(sequences)}")
        seq = sequences[0]
        if reference.length != seq.length:  # before the search, as batch does
            raise StempError(
                f"reference length {reference.length} != sequence length {seq.length}")
        _, report = run_pipeline(seq, cfg, max_cliques=args.max_cliques,
                                 deadline=Deadline(args.max_seconds))
    if args.ignore_noncanonical:
        reference = _canonical_only(reference, cfg.pairing)
    doc = {"id": report.sequence_id or reference.id, "metric": args.metric,
           "predictions": len(report.predictions),
           **_scores(report, reference, args.metric)}
    if not report.predictions:
        doc["note"] = "no predictions; scored the empty structure"
    with replacing(output) as out:
        out.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- batch

def _bucket_metric(scores: dict, metric: str) -> str:
    """The histogram bucket of a row's ``top`` or ``best`` scores. Thresholds
    compare exactly: mcc >= t iff mcc_squared >= t*t."""
    value = Fraction(scores["mcc_squared" if metric == "mcc" else "f1"])
    for label, threshold in METRIC_BUCKETS:
        cut = threshold * threshold if metric == "mcc" else threshold
        if value >= cut:
            return f">={label}"
    return f"<{METRIC_BUCKETS[-1][0]}"


def _bucket_scr(scr: int) -> str:
    """SCR's histogram bucket; SCR 0 marks an empty report, filed with the worst."""
    for threshold in SCR_BUCKETS:
        if 1 <= scr <= threshold:
            return f"<={threshold}"
    return f">{SCR_BUCKETS[-1]}"


def _batch_row(seq: Sequence, reference: ReferenceStructure, cfg: ProfileConfig,
               metric: str, max_cliques: int | None, max_seconds: float | None) -> dict:
    _, report = run_pipeline(seq, cfg, max_cliques=max_cliques,
                             deadline=Deadline(max_seconds))
    return {"id": seq.id, "length": seq.length, **_scores(report, reference, metric),
            "seconds": report.timing}


def _pair_inputs(directory: Path) -> list[tuple[Path, Path]]:
    pairs = []
    for fasta in sorted(directory.glob("*.fasta")) + sorted(directory.glob("*.fa")):
        for ext in (".ct", ".dbn", ".dot"):
            ref = fasta.with_suffix(ext)
            if ref.is_file():
                pairs.append((fasta, ref))
                break
        else:
            print(f"skipping {fasta.name}: no reference file", file=sys.stderr)
    return pairs


def cmd_batch(args) -> int:
    cfg = _configure(args)
    directory = Path(args.input)
    if not directory.is_dir():
        raise StempError(f"batch input must be a directory: {directory}")
    (output,) = _output_targets([("-o", args.output)])
    sequences = []
    references = []
    skipped = []
    failures = []
    for fasta, ref_path in _pair_inputs(directory):
        try:
            records = read_fasta(fasta)
            if len(records) != 1:
                raise StempError(f"{fasta.name}: expected one record, found {len(records)}")
            seq = records[0]
            reference = read_reference(ref_path)
            if reference.length != seq.length:
                raise StempError(f"{fasta.name}: reference length {reference.length} "
                                 f"!= sequence length {seq.length}")
            if seq.length < args.min_length:
                skipped.append({"id": seq.id,
                                "reason": f"length {seq.length} < {args.min_length}"})
                continue
            if not reference.pairs and not args.allow_empty_reference:
                skipped.append({"id": seq.id, "reason": "reference has no pairs"})
                continue
            if args.ignore_noncanonical:
                reference = _canonical_only(reference, cfg.pairing)
        except (StempError, OSError) as exc:
            failures.append({"file": fasta.name, "error": str(exc)})
            print(f"error: {exc}", file=sys.stderr)
            continue
        sequences.append(seq)
        references.append(reference)

    score = partial(_batch_row, cfg=cfg, metric=args.metric, max_cliques=args.max_cliques,
                    max_seconds=args.max_seconds)
    if args.jobs > 1 and len(sequences) > 1:
        # imported only here, so that no other command loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(sequences))) as pool:
            rows = list(pool.map(score, sequences, references))
    else:
        rows = list(map(score, sequences, references))

    scr_hist = {f"<={t}": 0 for t in SCR_BUCKETS}
    scr_hist[f">{SCR_BUCKETS[-1]}"] = 0
    top_hist = {f">={label}": 0 for label, _ in METRIC_BUCKETS}
    top_hist[f"<{METRIC_BUCKETS[-1][0]}"] = 0
    best_hist = dict(top_hist)
    for row in rows:
        scr_hist[_bucket_scr(row["scr_of_best"])] += 1
        top_hist[_bucket_metric(row["top"], args.metric)] += 1
        best_hist[_bucket_metric(row["best"], args.metric)] += 1
        if not args.timing:
            row.pop("seconds", None)

    header = f"{'id':<20} {'len':>5} {'top':>6} {'best':>6} {'scr':>5} {'dr':>4} {'m':>4}"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(f"{row['id']:<20} {row['length']:>5} "
              f"{row['top']['mcc_value' if args.metric == 'mcc' else 'f1_value']:>6.2f} "
              f"{row['best']['mcc_value' if args.metric == 'mcc' else 'f1_value']:>6.2f} "
              f"{row['scr_of_best']:>5} {row['dr_of_best']:>4} {row['multiplicity']:>4}")
    print(f"\nsequences: {len(rows)}  skipped: {len(skipped)}  failed: {len(failures)}")
    print(f"scr of best:  {scr_hist}")
    print(f"top {args.metric}:  {top_hist}")
    print(f"best {args.metric}: {best_hist}")

    if output:
        doc = {
            "schema": "stemp-batch/1",
            "profile": cfg.name,
            "metric": args.metric,
            "rows": rows,
            "skipped": skipped,
            "failures": failures,
            "histograms": {"scr_of_best": scr_hist, "top": top_hist, "best": best_hist},
        }
        with replacing(output) as out:
            out.write(json.dumps(doc, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------- entry

@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of the process."""
    return build_parser()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stemp",
        description="Deterministic RNA structure prediction by stem-graph clique search")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="predict structures for FASTA input")
    _add_profile_options(p)
    p.add_argument("input", help="FASTA file")
    p.add_argument("-o", "--output", default=None, help="report JSON path (default stdout)")
    p.add_argument("--dot-bracket", default=None,
                   help="also write the top structure(s) as dot-bracket text")
    p.add_argument("--all-ties", action="store_true",
                   help="write every rank-1 structure to --dot-bracket, not just the "
                        "first; with --top-k K, only those among the first K")
    p.add_argument("--dump-graph", default=None,
                   help="write the stem graph (JSON, or text if path ends in .txt)")
    p.add_argument("--top-k", type=_at_least(1), default=None,
                   help="keep only the k best-ranked predictions in the report")
    p.add_argument("--timing", action="store_true", help="include timing in the report")
    p.set_defaults(func=cmd_predict)

    e = sub.add_parser("evaluate", help="score predictions against a reference")
    _add_profile_options(e)
    e.add_argument("input", nargs="?", default=None, help="FASTA file (one record)")
    e.add_argument("--report", default=None, help="score an existing report JSON instead")
    e.add_argument("--reference", required=True, help="reference structure (.ct or .dbn)")
    e.add_argument("--metric", choices=("mcc", "f1"), default="mcc")
    e.add_argument("--ignore-noncanonical", action="store_true",
                   help="drop reference pairs the pairing rule cannot produce")
    e.add_argument("-o", "--output", default=None, help="metrics JSON path (default stdout)")
    e.set_defaults(func=cmd_evaluate)

    b = sub.add_parser("batch", help="run a directory of FASTA+reference pairs")
    _add_profile_options(b)
    b.add_argument("input", help="directory holding <name>.fasta with <name>.ct/.dbn")
    b.add_argument("--metric", choices=("mcc", "f1"), default="mcc")
    b.add_argument("--jobs", type=_at_least(1), default=1, help="worker processes")
    b.add_argument("--min-length", type=int, default=50,
                   help="skip sequences shorter than this (census validity rule)")
    b.add_argument("--allow-empty-reference", action="store_true",
                   help="keep sequences whose reference has no pairs")
    b.add_argument("--ignore-noncanonical", action="store_true",
                   help="drop reference pairs the pairing rule cannot produce")
    b.add_argument("--timing", action="store_true", help="include per-sequence wall time")
    b.add_argument("-o", "--output", default=None, help="structured results JSON path")
    b.set_defaults(func=cmd_batch)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (StempError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

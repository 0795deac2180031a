"""Scoring predicted base pairs against a reference structure.

Sensitivity, PPV, MCC and F1 are computed over base pairs: a pair counts as
a true positive only on an exact (p, q) index match. Sens, PPV and F1 are
kept as exact rationals; MCC is the square root of sens * ppv, so its exact
square is compared and the root is taken only for display.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Iterable

from .cliques import FoldPrediction, PredictionReport, RankedPredictions
from .seq import PairingRule
from .stems import Pair, check_pairs


@dataclass(frozen=True)
class ReferenceStructure:
    """A known folding: the pair set predictions are judged against."""

    id: str
    length: int
    pairs: frozenset[Pair]
    source: str = ""
    bases: str | None = None

    def __post_init__(self):
        check_pairs(sorted(self.pairs), self.length)


@dataclass(frozen=True)
class Metrics:
    """Pair-level confusion counts; every score is derived from them, exact.

    Conventions for degenerate inputs: an empty prediction against an empty
    reference scores 1 everywhere; otherwise a side with no positives scores
    0 on the metric it starves (sens when the reference is empty, ppv when
    the prediction is), and F1 is 0 when sens + ppv is.
    """

    tp: int
    fp: int
    fn: int

    @property
    def sens(self) -> Fraction:
        return self._share(self.tp, self.tp + self.fn)

    @property
    def ppv(self) -> Fraction:
        return self._share(self.tp, self.tp + self.fp)

    @property
    def f1(self) -> Fraction:
        """2 * sens * ppv / (sens + ppv), which is 2tp / (2tp + fp + fn)."""
        return self._share(2 * self.tp, 2 * self.tp + self.fp + self.fn)

    @property
    def mcc_squared(self) -> Fraction:
        return self._share(self.tp * self.tp, (self.tp + self.fn) * (self.tp + self.fp))

    @property
    def mcc(self) -> float:
        return math.sqrt(self.mcc_squared)

    def _share(self, part: int, whole: int) -> Fraction:
        """part / whole; with whole 0, 1 if both sides are empty, else 0."""
        return Fraction(part, whole) if whole else Fraction(not (self.tp or self.fp or self.fn))


def score_prediction(predicted: Iterable[Pair], reference: ReferenceStructure) -> Metrics:
    """Compare a predicted pair set with the reference."""
    return Metrics(*confusion_counts(predicted, reference))


def confusion_counts(predicted: Iterable[Pair],
                     reference: ReferenceStructure) -> tuple[int, int, int]:
    """(tp, fp, fn) of a predicted pair set, which ``check_pairs`` takes,
    sorted, on the reference's length."""
    pred = set(predicted)
    check_pairs(sorted(pred), reference.length)
    tp = len(reference.pairs.intersection(pred))
    return tp, len(pred) - tp, len(reference.pairs) - tp


def drop_noncanonical(reference: ReferenceStructure, rule: PairingRule) -> ReferenceStructure:
    """Remove reference pairs the pairing rule could never produce.

    Databases annotate non-canonical contacts (C-U, A-G, ...) that a
    canonical/wobble predictor cannot emit; with this filter those stop
    counting as false negatives. Requires the reference to carry bases.
    """
    if reference.bases is None:
        raise ValueError("reference carries no bases; cannot classify pairs")
    kept = frozenset(
        (p, q) for p, q in reference.pairs
        if rule.allows(reference.bases[p - 1], reference.bases[q - 1]))
    return replace(reference, pairs=kept)


@dataclass(frozen=True)
class ReportSummary:
    """Per-sequence roll-up: best score among rank-1 cliques, and overall."""

    metric: str
    top: Metrics
    best: Metrics
    best_scr: int
    best_dr: int
    best_multiplicity: int


def _metric_key(metrics: Metrics, metric: str):
    if metric == "mcc":
        return metrics.mcc_squared
    if metric == "f1":
        return metrics.f1
    raise ValueError(f"unknown metric {metric!r} (expected 'mcc' or 'f1')")


def summarize_report(report: PredictionReport, reference: ReferenceStructure,
                     metric: str = "mcc") -> ReportSummary:
    """Top = best score among SCR=1 predictions; Best = over all of them.

    Comparison is exact (rational F1, rational squared MCC); the first
    prediction in report order wins ties, which cannot change either value.
    A report holds thousands of predictions but few distinct confusion
    counts, so only the distinct counts are scored, and only the best
    prediction is built. A ranking whose stems all lie within the reference
    is scored from its stems and energy blocks alone (see
    ``_ranked_choice``); any other report from each prediction's pairs.
    """
    key = partial(_metric_key, metric=metric)
    key(Metrics(0, 0, 0))  # an unknown metric is refused before any scoring
    predictions = report.predictions
    if not predictions:
        raise ValueError("cannot summarize an empty report")
    # with a stem past the reference the pair path runs, and its
    # IndexOutOfRange names what check_pairs names in the first prediction
    # in report order that holds such a stem
    if (isinstance(predictions, RankedPredictions)
            and all(stem.j <= reference.length for stem in predictions.graph.vertices)):
        top, best, index = _ranked_choice(predictions, reference, key)
    else:
        top, best, index = _pair_choice(predictions, reference, key)
    best_pred = predictions[index]
    return ReportSummary(metric=metric, top=top, best=best,
                         best_scr=best_pred.scr, best_dr=best_pred.dr,
                         best_multiplicity=best_pred.multiplicity)


def _pair_choice(predictions: Sequence[FoldPrediction], reference: ReferenceStructure,
                 key) -> tuple[Metrics, Metrics, int]:
    """(top, best, report index of the best) from each prediction's pairs."""
    # first report index of each distinct count, overall and among SCR=1
    first: dict[tuple[int, int, int], int] = {}
    first_top: dict[tuple[int, int, int], int] = {}
    for index, pred in enumerate(predictions):
        counts = confusion_counts(pred.pairs, reference)
        first.setdefault(counts, index)
        if pred.scr == 1:
            first_top.setdefault(counts, index)

    def pick(firsts: dict) -> tuple[int, int, int]:
        # highest score; among equal scores, the earliest prediction
        return max(firsts, key=lambda c: (key(Metrics(*c)), -firsts[c]))

    best = pick(first)
    return Metrics(*pick(first_top)), Metrics(*best), first[best]


def _ranked_choice(ranked: RankedPredictions, reference: ReferenceStructure,
                   key) -> tuple[Metrics, Metrics, int]:
    """(top, best, report index of the best) of a ranking, from the largest
    tp of each energy that may score best.

    The stems of a ranked clique share no base, so its pair set is the
    disjoint union of theirs: tp is the sum of the stems' tp, fp = energy -
    tp and fn = |ref| - tp. At a fixed energy E both mcc² = tp²/(|ref|·E)
    and F1 = 2tp/(|ref|+E) strictly increase with tp, so only the largest
    tp of each energy can score best, no tp of E scores above tp =
    min(E, |ref|), and among predictions of equal score the first in report
    order has the highest energy. The energy blocks are taken from the top
    (SCR=1) down, and one whose bound does not beat the best score so far is
    skipped undecoded: on the ``census`` benchmark inputs, that leaves about
    2% of the predictions to read, each read once.
    """
    ref = reference.pairs
    tps = [len(ref.intersection(stem.pairs)) for stem in ranked.graph.vertices]

    def score(energy: int, tp: int) -> Metrics:
        return Metrics(tp, energy - tp, len(ref) - tp)

    top = best = None
    for energy, start, block in ranked.blocks():
        if top is None or key(score(energy, min(energy, len(ref)))) > key(best[0]):
            block_tps = [sum([tps[v] for v in vs]) for vs in block]
            tp = max(block_tps)
            metrics = score(energy, tp)
            if top is None:
                top = metrics
            if best is None or key(metrics) > key(best[0]):
                best = (metrics, start + block_tps.index(tp))  # the first of that tp
    return top, *best

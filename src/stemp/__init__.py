"""Deterministic RNA/protein secondary structure prediction.

Every candidate stem of a sequence becomes a graph vertex, co-existable
stems are connected, and each maximal clique is a candidate folding ranked
by its total number of matched base pairs. Pseudoknots fall out of the
representation for free. Family profiles (protein, tRNA, 5S rRNA) control
stem admission; see the README for the CLI.
"""

from .cliques import (FoldPrediction, PredictionReport, maximal_cliques,
                      rank_predictions)
from .errors import (AsymmetricPair, BudgetExceeded, FormatError, IndexOutOfRange,
                     InvalidCharacter, NotAcceptorCandidate, ProfileError,
                     StempError, TooManyLayers)
from .metrics import (Metrics, ReferenceStructure, ReportSummary, drop_noncanonical,
                      score_prediction, summarize_report)
from .profiles import (AcceptorSpec, DomainCandidate, DomainSpec, HelixSpec,
                       ProfileConfig, acceptor_sl, assemble_domains,
                       build_profile_graph, builtin_profile, load_profile,
                       profile_vertices, resolve_profile, rrna5s_helix_candidates,
                       trna_vertices)
from .seq import PairingRule, Sequence, parse_sequence
from .stems import (GapPattern, Interval, Stem, StemGraph, build_stem_graph, can_coexist,
                    enumerate_gapped_stems, enumerate_partial_stems, enumerate_stems)

__version__ = "0.1.0"

__all__ = [
    "AcceptorSpec", "AsymmetricPair", "BudgetExceeded", "DomainCandidate",
    "DomainSpec", "FoldPrediction", "FormatError", "GapPattern", "HelixSpec",
    "IndexOutOfRange", "Interval", "InvalidCharacter", "Metrics",
    "NotAcceptorCandidate", "PairingRule", "PredictionReport", "ProfileConfig",
    "ProfileError", "ReferenceStructure", "ReportSummary", "Sequence", "Stem",
    "StemGraph", "StempError", "TooManyLayers", "acceptor_sl", "assemble_domains",
    "build_profile_graph", "build_stem_graph", "builtin_profile", "can_coexist",
    "drop_noncanonical", "enumerate_gapped_stems", "enumerate_partial_stems",
    "enumerate_stems", "load_profile", "maximal_cliques", "parse_sequence",
    "profile_vertices", "rank_predictions", "resolve_profile",
    "rrna5s_helix_candidates", "score_prediction", "summarize_report",
    "trna_vertices",
]

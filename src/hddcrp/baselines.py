"""Deterministic comparison systems: lemma matching and agglomerative linking.

The lemma baseline clusters mentions corpus-wide by exact head lemma.  The
agglomerative baseline runs single-link clustering in two phases: first over
mentions inside each document, then over the resulting within-document
clusters across documents.  Single-link with a stopping threshold equals the
transitive closure of the "similarity at or above threshold" graph, so each
phase is the connected components of the pairs that pass its threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .links import ClusterAssignment, _components


@dataclass(frozen=True)
class AgglomerativeConfig:
    """Stopping thresholds of the two phases, each in [0, 1]."""

    wd_threshold: float = 0.5
    cd_threshold: float = 0.5

    def __post_init__(self):
        for v in (self.wd_threshold, self.cd_threshold):
            if not 0.0 <= v <= 1.0:
                raise InputError("thresholds must lie in [0, 1]")


def lemma_baseline(corpus):
    """Group mentions corpus-wide by exact head lemma equality."""
    groups = {}
    for i, m in enumerate(corpus.mentions_in_order()):
        groups.setdefault(m.head_lemma, []).append(i)
    return ClusterAssignment.from_index_partition(corpus.mention_ids, groups.values())


def agglomerative(corpus, model, resources, config=None):
    """Two-phase single-link clustering under the trained pairwise model.

    Phase 1 joins mentions of one document whose pair similarity is at or
    above wd_threshold.  Phase 2 joins the phase-1 clusters of different
    documents that hold a pair whose truncated similarity is at or above
    cd_threshold; no document-similarity weighting is applied there.
    """
    if config is None:
        config = AgglomerativeConfig()
    # every pair is scored once, in blocks; only pairs at or above a
    # threshold become edges
    doc_of = corpus.doc_of()
    within, across = [], []
    for i, j, sim in model.scored_pairs(corpus, resources, across=True):
        same = doc_of[i] == doc_of[j]
        keep = same & (sim >= config.wd_threshold)
        within += zip(i[keep].tolist(), j[keep].tolist())
        keep = ~same & (model.truncate(sim) >= config.cd_threshold)
        across += zip(i[keep].tolist(), j[keep].tolist())

    clusters = _components(len(doc_of), within)
    cluster_of = [0] * len(doc_of)
    for c, members in enumerate(clusters):
        for k in members:
            cluster_of[k] = c
    parts = _components(len(clusters), ((cluster_of[a], cluster_of[b]) for a, b in across))
    partition = [[k for c in part for k in clusters[c]] for part in parts]
    return ClusterAssignment.from_index_partition(corpus.mention_ids, partition)

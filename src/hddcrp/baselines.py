"""Deterministic comparison systems: lemma matching and agglomerative linking.

The lemma baseline clusters mentions corpus-wide by exact head lemma.  The
agglomerative baseline is single-link clustering with two thresholds: one for
pairs of mentions inside a document, one for pairs across documents.
Single-link with a stopping threshold equals the transitive closure of the
"similarity at or above threshold" graph, so the clusters are the connected
components of the pairs that pass their threshold.  That one closure equals
the two-phase method that first closes each document and then joins its
clusters across documents: joining clusters is closing their union.
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
    """Single-link clustering under the trained pairwise model.

    Mentions of one document are joined when their pair similarity is at or
    above wd_threshold, and mentions of different documents when their
    truncated similarity is at or above cd_threshold; no document-similarity
    weighting is applied there.
    """
    if config is None:
        config = AgglomerativeConfig()
    # a truncated similarity reaches a positive cd_threshold only if the
    # similarity reaches the truncation threshold as well
    cd = config.cd_threshold
    across = max(cd, model.truncation_threshold) if cd > 0 else 0.0
    edges = []
    for i, j, _ in model.scored_pairs(corpus, resources, config.wd_threshold, across):
        edges += zip(i.tolist(), j.tolist())
    clusters = _components(len(corpus.mention_ids), edges)
    return ClusterAssignment.from_index_partition(corpus.mention_ids, clusters)

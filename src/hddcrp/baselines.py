"""Deterministic comparison systems: lemma matching and agglomerative linking.

The lemma baseline clusters mentions corpus-wide by exact head lemma.  The
agglomerative baseline runs single-link clustering in two phases: first over
mentions inside each document, then over the resulting within-document
clusters across documents.  Single-link with a stopping threshold equals the
transitive closure of the "similarity at or above threshold" graph, so the
merge order affects only the trace, not the result; merges still happen in
descending similarity order with ties broken by the smallest witness pair so
the sequence is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .links import ClusterAssignment, canonical_order


@dataclass(frozen=True)
class AgglomerativeConfig:
    """Stopping thresholds; merging stops once the best pair drops below."""

    wd_threshold: float = 0.5
    cd_threshold: float = 0.5

    def __post_init__(self):
        for v in (self.wd_threshold, self.cd_threshold):
            if not 0.0 <= v <= 1.0:
                raise ValueError("thresholds must lie in [0, 1]")


def lemma_baseline(corpus):
    """Group mentions corpus-wide by exact head lemma equality."""
    groups = {}
    for m in corpus.mentions_in_order():
        groups.setdefault(m.head_lemma, []).append(m.mention_id)
    return ClusterAssignment.from_partition(canonical_order(corpus), groups.values())


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return False
        self.parent[max(ri, rj)] = min(ri, rj)
        return True


def _single_link(n, scored_edges, threshold):
    """Union-find over edges with similarity >= threshold, highest first.

    scored_edges: iterable of (similarity, i, j) with i < j.  Returns the
    partition of 0..n-1 and the merge trace as (similarity, i, j) tuples.
    """
    uf = _UnionFind(n)
    trace = []
    for sim, i, j in sorted(scored_edges, key=lambda e: (-e[0], e[1], e[2])):
        if sim < threshold:
            break
        if uf.union(i, j):
            trace.append((sim, i, j))
    groups = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return [groups[r] for r in sorted(groups)], trace


def agglomerative(corpus, model, resources, config=None):
    """Two-phase single-link clustering under the trained pairwise model.

    Phase 1 merges mentions within each document while the best inter-cluster
    pair similarity stays at or above wd_threshold.  Phase 2 merges the phase-1
    clusters across documents by the best truncated pair similarity against
    cd_threshold; no document-similarity weighting is applied there.
    """
    if config is None:
        config = AgglomerativeConfig()
    # Every pair is scored once, in blocks.  Only pairs at or above a
    # threshold become edges: _single_link never merges along the others.
    docs = sorted(corpus.documents, key=lambda d: d.doc_id)
    order = [m for d in docs for m in d.mentions]  # the canonical order
    sizes = [len(d.mentions) for d in docs]
    first = np.concatenate(([0], np.cumsum(sizes))).tolist()
    doc_of = np.repeat(np.arange(len(docs)), sizes)
    within = [[] for _ in docs]  # per document: (sim, i, j), local indices
    across = []  # (truncated sim, i, j) between documents
    for i, j, sim in model.upper_pairs(order, resources):
        same = doc_of[i] == doc_of[j]
        keep = same & (sim >= config.wd_threshold)
        for s, d, a, b in zip(*(x[keep].tolist() for x in (sim, doc_of[i], i, j))):
            within[d].append((s, a - first[d], b - first[d]))
        trunc = model.truncate(sim)
        keep = ~same & (trunc >= config.cd_threshold)
        across += zip(trunc[keep].tolist(), i[keep].tolist(), j[keep].tolist())

    wd_clusters = []
    cluster_of = [0] * len(order)
    for d, doc in enumerate(docs):
        parts, _ = _single_link(sizes[d], within[d], config.wd_threshold)
        for part in parts:
            for k in part:
                cluster_of[first[d] + k] = len(wd_clusters)
            wd_clusters.append([doc.mentions[k] for k in part])

    # the best truncated pair similarity of each pair of clusters; clusters
    # are numbered in the canonical order, so a < b gives ca < cb
    best = {}
    for s, a, b in across:
        key = (cluster_of[a], cluster_of[b])
        best[key] = max(best.get(key, s), s)
    edges = [(s, ca, cb) for (ca, cb), s in best.items()]
    parts, _ = _single_link(len(wd_clusters), edges, config.cd_threshold)
    partition = [
        [m.mention_id for k in part for m in wd_clusters[k]] for part in parts
    ]
    return ClusterAssignment.from_partition(canonical_order(corpus), partition)

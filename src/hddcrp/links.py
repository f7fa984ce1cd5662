"""Connected components and canonical clusterings of mentions.

_components is the one routine that turns edges into a partition: the
samplers' link graphs and the agglomerative baseline call it.  A
ClusterAssignment is a partition whose labels are canonical by
construction: the one clustering type, in which the gold partition, every
sampler and baseline, and the scorer hand clusterings on.  Which links are
active and what their components stand for is defined by the samplers in
sampling.py.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import InputError


def _components(n, edges):
    """Connected components of vertices 0..n-1, in first-vertex order."""
    adj = [[] for _ in range(n)]
    for i, j in edges:
        if i != j:
            adj[i].append(j)
            adj[j].append(i)
    comp = [-1] * n
    out = []
    for start in range(n):
        if comp[start] >= 0:
            continue
        k = len(out)
        comp[start] = k
        stack = [start]
        members = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if comp[v] < 0:
                    comp[v] = k
                    stack.append(v)
                    members.append(v)
        out.append(sorted(members))
    return out


@dataclass(frozen=True)
class ClusterAssignment:
    """A clustering of distinct mentions with canonical labels.

    Labels form a restricted growth string over the canonical mention order:
    the first mention gets cluster 0, and each later mention gets either an
    existing label or the smallest unused one.  Any labels given, one per
    mention and of any hashable type, are relabelled so, and so two
    assignments over the same mentions are equal iff they induce the same
    partition.
    """

    mention_ids: tuple[str, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        ids, raw = tuple(self.mention_ids), tuple(self.labels)
        if len(ids) != len(raw):
            raise InputError(f"{len(raw)} labels for {len(ids)} mentions")
        if len(set(ids)) < len(ids):
            repeated = next(mid for mid, n in Counter(ids).items() if n > 1)
            raise InputError(f"mention id {repeated!r} is repeated")
        seen = {}
        labels = tuple(seen.setdefault(k, len(seen)) for k in raw)
        object.__setattr__(self, "mention_ids", ids)
        object.__setattr__(self, "labels", labels)

    @staticmethod
    def from_index_partition(mention_ids, parts):
        """Build from disjoint collections of indices into mention_ids."""
        raw = [0] * len(mention_ids)
        for k, members in enumerate(parts):
            for i in members:
                raw[i] = k
        return ClusterAssignment(mention_ids, raw)

    def as_mapping(self):
        return dict(zip(self.mention_ids, self.labels))

    def partition(self):
        """Clusters as frozensets of mention ids, in label order."""
        parts = [set() for _ in range(max(self.labels) + 1)] if self.labels else []
        for mid, k in zip(self.mention_ids, self.labels):
            parts[k].add(mid)
        return [frozenset(p) for p in parts]

    def n_clusters(self):
        return max(self.labels) + 1 if self.labels else 0

"""Connected components of links, and canonical clusterings of mentions.

This module owns how links become a partition.  _components rebuilds it
from scratch: the samplers and the agglomerative baseline call it.
LinkGraph keeps it current one edge at a time for the samplers' link moves,
with each component's members and lemma bag, and checks itself against
_components.  A ClusterAssignment is a partition whose labels are
canonical by construction: the one clustering type, in which the gold
partition, every sampler and baseline, and the scorer hand clusterings on.
Which links are active and what their components stand for is defined by
the samplers in sampling.py.
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


def _shift_bag(bags, key, bag, sign):
    """Add (sign 1) or subtract (sign -1) the lemma bag bag, a (counts,
    total) pair, to the bag at key, dropping the counts that reach 0."""
    counts, total = bags.get(key) or ({}, 0)
    for tok, c in bag[0].items():
        left = counts.get(tok, 0) + sign * c
        if left:
            counts[tok] = left
        else:
            del counts[tok]
    bags[key] = (counts, total + sign * bag[1])


class LinkGraph:
    """Components of the undirected graph with one outgoing edge per mention
    (a self-loop stands for no edge), kept up to date one edge at a time.
    The state holds the edges; the graph holds each mention's inbound edges,
    each mention's component id and each component's members and lemma bag
    (counts, total), kept by adding and subtracting the bags that move.

    Dropping an edge splits at most one component and adding one merges at
    most two (Blei & Frazier 2011).  A move asks side() what dropping an edge
    would split off, without changing anything, and scores its candidates
    against that virtual split; move() then commits the new edge and touches
    the components only if the partition changes.
    """

    def __init__(self, out, bag_of):
        n = len(out)
        self.inbound = [set() for _ in range(n)]
        for m, t in enumerate(out):
            if t != m:
                self.inbound[t].add(m)
        self.bag_of = bag_of
        self.comp = [0] * n
        self.members = {}  # component id -> mentions
        self.bags = {}  # component id -> lemma bag
        parts = _components(n, enumerate(out))
        for k, part in enumerate(parts):
            for m in part:
                self.comp[m] = k
            self.members[k] = set(part)
            self.bags[k] = bag_of(part)
        self._next_id = len(parts)

    def component(self, m):
        """Members and lemma bag of the component holding m."""
        k = self.comp[m]
        return self.members[k], self.bags[k]

    def side(self, i, j):
        """Mentions left with i if its edge i -> j were dropped, or None if
        dropping it splits nothing (a self edge, or an edge closing a cycle).

        Every mention has one outgoing edge, so i's side is the set of
        mentions whose edges lead to i; it reaches j only through a cycle.
        """
        if j == i:
            return None
        inbound = self.inbound
        seen = {i}
        stack = [i]
        while stack:
            for v in inbound[stack.pop()]:
                if v == j:
                    return None
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    def move(self, i, old, new, side, side_bag):
        """Replace i's edge i -> old with i -> new, where side is
        side(i, old) and side_bag its lemma bag.  The side splits off if new
        lies on it, joins new's component if that is another one, and stays
        put if new lies in the rest of i's component; with no side, i's
        component merges with new's, the smaller taking the larger's id."""
        if old != new:
            if old != i:
                self.inbound[old].remove(i)
            if new != i:
                self.inbound[new].add(i)
        comp, members, bags = self.comp, self.members, self.bags
        a, b = comp[i], comp[new]
        if side is None:
            if a == b:
                return
            if len(members[a]) > len(members[b]):
                a, b = b, a
            moved, bag = members.pop(a), bags.pop(a)
        else:
            if new in side:
                b = self._next_id
                self._next_id += 1
            elif a == b:
                return
            moved, bag = side, side_bag
            # a split or a join leaves at least the old target in the rest
            members[a] -= moved
            _shift_bag(bags, a, bag, -1)
        members.setdefault(b, set()).update(moved)
        _shift_bag(bags, b, bag, 1)
        for m in moved:
            comp[m] = b

    def check(self, out):
        """Raise AssertionError unless the inbound edges, component ids,
        member sets and lemma bags match a from-scratch rebuild over the
        edges out."""
        inbound = [set() for _ in out]
        for m, t in enumerate(out):
            if t != m:
                inbound[t].add(m)
        if self.inbound != inbound:
            raise AssertionError("maintained inbound edges differ from a rebuild")
        expected = {}
        parts = _components(len(out), enumerate(out))
        for part in parts:
            ids = {self.comp[m] for m in part}
            if len(ids) != 1:
                raise AssertionError(f"component {part} carries ids {sorted(ids)}")
            expected[ids.pop()] = set(part)
        if len(expected) != len(parts):
            raise AssertionError("two components share one id")
        if self.members != expected:
            raise AssertionError("maintained component member sets differ from a rebuild")
        bags = {k: self.bag_of(part) for k, part in expected.items()}
        for k in bags.keys() | self.bags.keys():
            if self.bags.get(k) != bags.get(k):
                raise AssertionError(f"lemma bag of component {k} differs from a rebuild")


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

"""Collapsed Gibbs samplers for the link-based clustering models.

Four models share one machinery:

- hddcrp: sequential distance-dependent customer links within each document
  plus distance-dependent table links across documents.  Clusters are the
  connected components over customer links and the table links of table heads
  (mentions whose customer link is a self-loop).
- hddcrp_star: the same within-document level, but the top level is a plain
  CRP over tables: each table head carries a cluster label instead of a table
  link.
- hdp_lex: hddcrp_star with all within-document distances equal, so only the
  lexical likelihood drives clustering.
- ddcrp_flat: one non-sequential distance-dependent link per mention over the
  whole corpus, ignoring document boundaries.

Every conditional is collapsed: a candidate link is weighted by its prior
times the Dirichlet-multinomial ratio between the clusters it would merge.
Terms shared by all candidates cancel, so each move only compares the cluster
containing the moving mention against each candidate's cluster in the base
graph with the mention's outgoing edges removed.

Each state holds every mention's active outgoing edge (_edge) and keeps the
graph in a LinkGraph: each mention's inbound edges and the components with
their member sets and lemma bags.  One link move serves all four models.  It
proposes first, reading the graph only: the moving mention's part is the side
that dropping its edge would split off, or else its whole component, and the
model weighs every candidate against that virtual split.  It then draws and
commits the edge, and the components change only if the partition does: the
side splits off, joins another component, or the whole component merges with
another.  Most moves touch no member set or bag.  A move costs
O(|component| + |candidates|), and no bag is rebuilt: a split or join adds
and subtracts the side's lemma counts, a merge adds the smaller bag into the
larger.

For hddcrp and ddcrp_flat a candidate weighs the merge ratio with its
target's component: nothing for a target on the side, the split ratio, read
off the whole bag, for one in the rest of the component.  For hddcrp_star
and hdp_lex the part is a table and a candidate weighs the merge ratio with
its target's label; the self candidate, which makes a new table, has that
table's label summed out over the CRP conditional, and the label is drawn
after the link, only if the mention really becomes a head.  Labels of all
other tables never change during the move, and because the CRP over tables
is exchangeable their probability is a common factor across candidates.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import InputError
from .likelihood import (
    LikelihoodParams,
    lemma_bags,
    log_marginal_raw,
    merge_normaliser_raw,
    merge_ratio_raw,
    split_ratio_raw,
)
from .links import ClusterAssignment, _components, clusters_from_links

MODELS = ("hddcrp", "hddcrp_star", "ddcrp_flat", "hdp_lex")

# chain seeds come from SeedSequence.spawn, which builds every child at once
MAX_CHAINS = 10_000

# top-level concentration defaults per model
DEFAULT_ALPHA_0 = {
    "hddcrp": 0.001,
    "hddcrp_star": 1.0,
    "ddcrp_flat": 0.1,
    "hdp_lex": 1.0,
}


@dataclass(frozen=True)
class SamplerConfig:
    model: str = "hddcrp"
    alpha_d: float = 0.5
    alpha_0: float | None = None
    iterations: int = 500
    chains: int = 5
    seed: int = 0
    concentration: float = 1e-7
    burn_in: int = 0
    randomized_scan: bool = False
    map_estimate: bool = False
    flat_likelihood: bool = False
    debug: bool = False

    def __post_init__(self):
        if self.model not in MODELS:
            raise InputError(f"unknown model {self.model!r}, expected one of {MODELS}")
        for name in ("alpha_d", "alpha_0", "concentration"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise InputError(f"{name} must be finite, got {value}")
        if self.alpha_d <= 0 or self.resolved_alpha_0 <= 0:
            raise InputError("concentrations must be positive")
        if self.iterations < 1 or self.chains < 1:
            raise InputError("iterations and chains must be at least 1")
        if self.chains > MAX_CHAINS:
            raise InputError(f"chains must be at most {MAX_CHAINS}, got {self.chains}")
        for name in ("burn_in", "seed"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.concentration <= 0:
            raise InputError("concentration must be positive")

    @property
    def resolved_alpha_0(self):
        if self.alpha_0 is not None:
            return self.alpha_0
        return DEFAULT_ALPHA_0[self.model]


@dataclass(frozen=True)
class Priors:
    """Positive-weight link candidates per mention, self candidate first.

    customer[i] is the support of mention i's customer link (or its only link
    for ddcrp_flat); table[i] is the support of its table link for hddcrp.
    """

    customer: tuple
    table: tuple | None = None


def _support(n, self_weight, rows, targets, weights):
    """Candidate tuples per mention from (row, target, weight) arrays: the
    self candidate first, then every positive-weight target in ascending
    order, weights as Python floats."""
    keep = weights > 0
    rows, targets, weights = rows[keep], targets[keep], weights[keep]
    by_row = np.lexsort((targets, rows))
    bounds = np.searchsorted(rows[by_row], np.arange(n + 1)).tolist()
    targets, weights = targets[by_row].tolist(), weights[by_row].tolist()
    return tuple(
        ((i, self_weight), *zip(targets[lo:hi], weights[lo:hi]))
        for i, lo, hi in zip(range(n), bounds, bounds[1:])
    )


def _both_ways(i, j, w):
    return np.concatenate((i, j)), np.concatenate((j, i)), np.concatenate((w, w))


def _trained_pairs(pairwise, mentions, resources):
    """(i, j, truncated similarity) arrays of the pairs i < j whose truncated
    similarity is positive; each unordered pair is scored once."""
    parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    for i, j, sim in pairwise.upper_pairs(mentions, resources):
        w = pairwise.truncate(sim)
        keep = w > 0
        parts.append((i[keep], j[keep], w[keep]))
    return [np.concatenate(x) for x in zip(*parts)]


def _uniform_pairs(sizes, across):
    """(i, j, 1.0) arrays of the pairs i < j of the canonical order, over
    documents of the given sizes; pairs across documents only if across."""
    bounds = np.cumsum([0, *sizes]).tolist()
    blocks = [(0, bounds[-1])] if across else zip(bounds, bounds[1:])
    parts = [(np.empty(0, np.intp), np.empty(0, np.intp))]
    parts += [[lo + x for x in np.triu_indices(hi - lo, 1)] for lo, hi in blocks]
    i, j = (np.concatenate(x) for x in zip(*parts))
    return i, j, np.ones(len(i))


def build_priors(corpus, config, pairwise=None, resources=None, uniform=False):
    """Assemble link supports for a model from trained distances, or from a
    distance of 1.0 on every allowed link if uniform; hdp_lex is always
    uniform."""
    order = corpus.mentions_in_order()
    n = len(order)
    documents = sorted(corpus.documents, key=lambda d: d.doc_id)
    sizes = [len(d.mentions) for d in documents]
    doc_of = np.repeat(np.arange(len(documents)), sizes)
    kind = config.model
    alpha_d, alpha_0 = config.alpha_d, config.resolved_alpha_0

    uniform = uniform or kind == "hdp_lex"
    if uniform:
        # only hddcrp tables and ddcrp_flat links leave the document
        i, j, w = _uniform_pairs(sizes, kind in ("hddcrp", "ddcrp_flat"))
    elif pairwise is None or resources is None:
        raise InputError(f"model {kind!r} needs a trained distance model")
    else:
        i, j, w = _trained_pairs(pairwise, order, resources)

    if kind == "ddcrp_flat":
        return Priors(_support(n, alpha_0, *_both_ways(i, j, w)))

    # the later mention of a same-document pair links back to the earlier
    same = doc_of[i] == doc_of[j]
    customer = _support(n, alpha_d, j[same], i[same], w[same])
    table = None
    if kind == "hddcrp":
        i, j, w = i[~same], j[~same], w[~same]
        if not uniform:
            w = pairwise.cross_doc_factors(documents)[doc_of[i], doc_of[j]] * w
        table = _support(n, alpha_0, *_both_ways(i, j, w))
    return Priors(customer, table)


# Float sums that reach an output add left to right with reduce(add, ...):
# sum() of floats is compensated from Python 3.12 on, so its last bits
# depend on the interpreter.


def _draw(rng, log_weights):
    """Index sampled proportionally to exp(log_weights), max-shifted: the
    first whose left-to-right partial sum reaches u, a uniform draw below
    the total."""
    top = max(log_weights)
    acc = list(itertools.accumulate([math.exp(x - top) for x in log_weights]))
    return bisect_left(acc, rng.random() * acc[-1])


def _log_sum_exp(terms):
    top = max(terms)
    return top + math.log(reduce(add, [math.exp(t - top) for t in terms], 0.0))


def crp_partition_log_prob(sizes, alpha):
    """Log EPPF of a CRP partition: alpha^K prod (n_k-1)! / rising(alpha, n)."""
    n = sum(sizes)
    out = len(sizes) * math.log(alpha)
    for s in sizes:
        out += math.lgamma(s)
    for t in range(n):
        out -= math.log(alpha + t)
    return out


def _link_log_prior(cands, log_norm, target):
    for j, _, lw in cands:
        if j == target:
            return lw - log_norm


def _with_logs(supports):
    """Per-mention candidate tuples (target, weight, log weight) and the log
    of each mention's total weight."""
    cands = tuple(tuple((j, w, math.log(w)) for j, w in c) for c in supports)
    norms = tuple(math.log(reduce(add, (w for _, w in c), 0.0)) for c in supports)
    if not all(map(math.isfinite, norms)):
        raise InputError("link weights overflow: lower gamma or the concentrations")
    return cands, norms


class _Groups:
    """Mention sets by key, each with its lemma bag (counts, total) kept up to
    date by adding and subtracting the bags of the members that move."""

    def __init__(self, bag_of):
        self.members = {}
        self.bags = {}
        self.bag_of = bag_of

    def add(self, key, members, bag):
        """Add members, whose summed lemma bag is bag, to the group at key."""
        self.members.setdefault(key, set()).update(members)
        counts, total = self.bags.get(key) or ({}, 0)
        for tok, c in bag[0].items():
            counts[tok] = counts.get(tok, 0) + c
        self.bags[key] = (counts, total + bag[1])

    def remove(self, key, members, bag):
        """Take members, whose summed lemma bag is bag, out of the group at key."""
        self.members[key] -= members
        counts, total = self.bags[key]
        for tok, c in bag[0].items():
            counts[tok] -= c
            if not counts[tok]:
                del counts[tok]
        self.bags[key] = (counts, total - bag[1])
        if not self.members[key]:
            del self.members[key], self.bags[key]

    def pop(self, key):
        return self.members.pop(key), self.bags.pop(key)

    def check(self, expected, what):
        """Raise AssertionError unless the member sets equal expected (key ->
        set) and every bag equals one built afresh."""
        if self.members != expected:
            raise AssertionError(f"maintained {what} member sets differ from a rebuild")
        for key, bag in self.bags.items():
            if bag != self.bag_of(self.members[key]):
                raise AssertionError(f"lemma bag of {what} {key} differs from a rebuild")


class LinkGraph:
    """Components of the undirected graph with one outgoing edge per mention
    (a self-loop stands for no edge), kept up to date one edge at a time.
    The state holds the edges; the graph holds each mention's inbound edges.

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
        self.comp = [0] * n
        self.groups = _Groups(bag_of)
        parts = _components(n, enumerate(out))
        for k, part in enumerate(parts):
            for m in part:
                self.comp[m] = k
            self.groups.add(k, part, bag_of(part))
        self._next_id = len(parts)

    def members(self, m):
        """Mentions of the component holding m."""
        return self.groups.members[self.comp[m]]

    def bag(self, m):
        """Lemma bag of the component holding m."""
        return self.groups.bags[self.comp[m]]

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
        comp, groups = self.comp, self.groups
        a, b = comp[i], comp[new]
        if side is None:
            if a == b:
                return
            if len(groups.members[a]) > len(groups.members[b]):
                a, b = b, a
            moved, bag = groups.pop(a)
        elif new in side:
            b = self._next_id
            self._next_id += 1
            moved, bag = side, side_bag
            groups.remove(a, moved, bag)
        elif a != b:
            moved, bag = side, side_bag
            groups.remove(a, moved, bag)
        else:
            return
        groups.add(b, moved, bag)
        for m in moved:
            comp[m] = b

    def check(self, out):
        """Raise AssertionError unless the inbound edges, component ids and
        member sets match a from-scratch rebuild over the edges out."""
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
        self.groups.check(expected, "component")


class _StateBase:
    """Shared precomputation over the canonical mention order, and the
    link-graph core each model keeps over its active links."""

    def __init__(self, corpus, config, priors, params):
        order = corpus.mentions_in_order()
        self.config = config
        self.params = params
        self.n = len(order)
        self.mention_ids = tuple(m.mention_id for m in order)
        # a flat likelihood is one over empty bags: every ratio and marginal is 0.0
        lemmas = (() if config.flat_likelihood else m.span_lemmas for m in order)
        self.span_counts, _, self._bag = lemma_bags(lemmas)
        self.debug = config.debug
        self.cand_c, self.log_norm_c = _with_logs(priors.customer)
        self.cl = list(range(self.n))
        # (candidates, log normalizers, links) of each link level, in draw order
        self._levels = ((self.cand_c, self.log_norm_c, self.cl),)

    def init_links(self, rng):
        """Draw every link uniformly from its support and build the graph."""
        for i in range(self.n):
            for cands, _, links in self._levels:
                links[i] = cands[i][int(rng.integers(len(cands[i])))][0]
        self._start_graph()

    def _edge(self, m):
        """Target of m's active link, m itself if it has none."""
        return self.cl[m]

    def _edges(self):
        return [self._edge(m) for m in range(self.n)]

    def _start_graph(self):
        self.graph = LinkGraph(self._edges(), self._bag)

    def _check_core(self):
        self.graph.check(self._edges())

    def _parts(self):
        """Components of the active links, rebuilt from scratch: the clusters
        of hddcrp and ddcrp_flat, the tables of the table models."""
        return _components(self.n, enumerate(self._edges()))

    def _merge_delta(self, a, b):
        return merge_ratio_raw(*a, *b, self.params)

    def _partition_loglik(self, parts):
        total = 0.0
        for part in parts:
            total += log_marginal_raw(*self._bag(part), self.params)
        return total

    def _scratch_loglik(self):
        return self._partition_loglik(self._parts())

    def _groups_loglik(self, groups, key_of):
        """_scratch_loglik from the maintained clusters, key_of[m] being the
        key of mention m's cluster: their bags, summed in the order of their
        first mentions, which is the order _parts() gives."""
        total = 0.0
        bags = groups.bags
        for key in dict.fromkeys(key_of):
            total += log_marginal_raw(*bags[key], self.params)
        if self.debug and total != self._scratch_loglik():
            raise AssertionError("joint score from the maintained bags differs from a rebuild")
        return total

    def _scan_order(self, rng):
        if self.config.randomized_scan:
            return [int(i) for i in rng.permutation(self.n)]
        return range(self.n)

    def _link_move(self, i, cands, links, rng):
        """Resample links[i] over cands: the one move of every model.  With
        links[i] = i, _weigh scores each candidate against the virtual split
        of i's part, the side dropping i's edge would split off or else i's
        whole component; after the draw, _place settles the part and
        LinkGraph.move commits the edge.  The self candidate's target is i's
        edge with links[i] = i: for a customer link of hddcrp, its table link."""
        graph = self.graph
        old = self._edge(i)
        side = graph.side(i, old)
        links[i] = i
        if side is None:
            part, bag = graph.members(i), graph.bag(i)
        else:
            part, bag = side, self._bag(side)
        log_weights, scored = self._weigh(i, cands, links, part, bag, side)
        links[i] = cands[_draw(rng, log_weights)][0]
        self._place(i, part, bag, links[i], scored, rng)
        graph.move(i, old, self._edge(i), side, bag)
        if self.debug:
            self._check_core()
        return links[i]

    def _weigh(self, i, cands, links, part, bag, side):
        """Log weight of each candidate, its prior times the merge ratio of
        i's part with its target's component: 0.0 for a target on i's side,
        the split ratio in the rest of i's component; _place needs nothing."""
        comp = self.graph.comp
        home = comp[i]
        bags = self.graph.groups.bags
        self_target = self._edge(i)
        if side is None:
            delta_by_comp = {home: 0.0}
        else:
            rest = split_ratio_raw(bag, bags[home], self.params)
            delta_by_comp = {}
        deltas = []
        log_weights = []
        for j, _, lw in cands:
            t = self_target if j == i else j
            c = comp[t]
            d = delta_by_comp.get(c)
            if d is None:
                if c == home:  # reached only when i's edge splits a side off
                    d = 0.0 if t in side else rest
                else:
                    d = delta_by_comp[c] = self._merge_delta(bag, bags[c])
            deltas.append(d)
            log_weights.append(lw + d)
        if self.debug:
            self._debug_check(i, cands, deltas, links)
        return log_weights, None

    def _place(self, i, part, bag, target, scored, rng):
        """Settle i's part once links[i] is target: the edges say it all here."""

    def _debug_check(self, i, cands, deltas, links):
        """Compare each candidate's ratio with the from-scratch likelihood
        gap between i linked to it and i with no active link."""
        saved = [(level, level[i]) for _, _, level in self._levels]
        for level, _ in saved:
            level[i] = i
        base = self._scratch_loglik()
        for (j, _, _), delta in zip(cands, deltas):
            for level, value in saved:
                level[i] = value
            links[i] = j
            gap = self._scratch_loglik() - base
            if abs(gap - delta) > 1e-9:
                raise AssertionError(
                    f"incremental ratio {delta} != from-scratch {gap} "
                    f"(mention {i}, candidate {j})"
                )
        for level, value in saved:
            level[i] = value

    def _links_log_prior(self):
        score = 0.0
        for i in range(self.n):
            for cands, norms, links in self._levels:
                score += _link_log_prior(cands[i], norms[i], links[i])
        return score

    def joint_log_score(self):
        # the graph's components are the clusters of hddcrp and ddcrp_flat
        return self._links_log_prior() + self._groups_loglik(self.graph.groups, self.graph.comp)

    def clustering(self):
        return ClusterAssignment.from_index_partition(self.mention_ids, self._parts())

    def sample_customer_link(self, i, rng):
        return self._link_move(i, self.cand_c[i], self.cl, rng)

    def sweep(self, rng):
        for i in self._scan_order(rng):
            self.sample_customer_link(i, rng)


class HddcrpState(_StateBase):
    """Full two-level link state: customer links plus table links."""

    def __init__(self, corpus, config, priors, params):
        super().__init__(corpus, config, priors, params)
        if priors.table is None:
            raise InputError("hddcrp needs table-link priors")
        self.cand_t, self.log_norm_t = _with_logs(priors.table)
        self.tl = list(range(self.n))
        self._levels += ((self.cand_t, self.log_norm_t, self.tl),)

    def _edge(self, m):
        # a table link is active only on a table head
        c = self.cl[m]
        return c if c != m else self.tl[m]

    def sample_table_link(self, i, rng):
        cands = self.cand_t[i]
        if self.cl[i] != i:
            # inactive link: the clustering ignores it, so prior only
            choice = _draw(rng, [lw for _, _, lw in cands])
            self.tl[i] = cands[choice][0]
            if self.debug:
                self._check_core()
            return self.tl[i]
        return self._link_move(i, cands, self.tl, rng)

    def sweep(self, rng):
        super().sweep(rng)
        for i in self._scan_order(rng):
            self.sample_table_link(i, rng)


class TableCrpState(_StateBase):
    """Within-document links plus CRP cluster labels on table heads.

    Serves hddcrp_star and hdp_lex; they differ only in the customer priors.
    The link-graph components are the tables.  Each mention's label, the
    mentions and lemma bag of each label, its table count and a multiset of
    the labels' (tables, lemma total) keys are kept beside them; a table that
    joins or leaves a label moves all of these in one step.  The customer
    move is the shared link move: this class supplies only its label weights
    (_weigh) and its label step (_place).

    A move scores every label against the moving table.  Only labels that
    share a lemma with it, found through a lemma -> mentions index, need the
    full merge ratio; for any other label the ratio is its normaliser, a
    function of the two lemma totals kept in a memo.  Such a label's CRP
    weight thus depends on its key alone: the summed-out label of a new table
    takes one term per key, and the label draw weighs each key once.
    """

    def __init__(self, corpus, config, priors, params):
        super().__init__(corpus, config, priors, params)
        self.alpha_0 = config.resolved_alpha_0
        self._log_alpha_0 = math.log(self.alpha_0)
        # logs[k] is math.log(k) for every table or label count k a state reaches
        self._logs = [-math.inf] + [math.log(k) for k in range(1, self.n + 1)]
        self.lemma_holders = {}  # lemma -> mentions whose span holds it
        for m, counts in enumerate(self.span_counts):
            for tok in counts:
                self.lemma_holders.setdefault(tok, []).append(m)
        self._normalisers = {}  # (total_a, total_b) -> merge normaliser
        self.next_label = self.n

    def _start_graph(self):
        """Build the link graph and give every table a fresh label."""
        super()._start_graph()
        # label of each mention's table, None while its table is being moved
        self.label_of = [None] * self.n
        self.label_groups = _Groups(self._bag)
        self.tables = {}  # label -> heads carrying it
        self.keys = {}  # (tables, lemma total) -> labels with that key
        for head in self._heads():
            self._relabel(self.graph.members(head), self.graph.bag(head), self.next_label, True)
            self.next_label += 1

    def _heads(self):
        """Mentions whose customer link is a self-loop, in ascending order."""
        return [m for m in range(self.n) if self.cl[m] == m]

    def _count_key(self, k, step):
        """Add step to the count of label k's (tables, lemma total) key, if
        k has tables; callers take the key out before changing either count
        and put it back after."""
        t = self.tables.get(k)
        if t:
            key = (t, self.label_groups.bags[k][1])
            left = self.keys.get(key, 0) + step
            if left:
                self.keys[key] = left
            else:
                del self.keys[key]

    def _relabel(self, table, bag, label, headed):
        """Move the mentions of one table, its lemma bag bag and, if the
        table has its head, its table count from their label to label; None
        stands for no label."""
        old = self.label_of[next(iter(table))]
        for m in table:
            self.label_of[m] = label
        for k, step in ((old, -1), (label, 1)):
            if k is None:
                continue
            self._count_key(k, -1)
            if step < 0:
                self.label_groups.remove(k, table, bag)
            else:
                self.label_groups.add(k, table, bag)
            if headed:
                t = self.tables.get(k, 0) + step
                if t:
                    self.tables[k] = t
                else:
                    del self.tables[k]
            self._count_key(k, 1)

    def _normaliser(self, total_a, total_b):
        """Merge normaliser of two lemma totals, memoised per chain."""
        key = (total_a, total_b)
        d = self._normalisers.get(key)
        if d is None:
            d = self._normalisers[key] = merge_normaliser_raw(total_a, total_b, self.params)
        return d

    def _shared_deltas(self, stats):
        """Merge ratio of the table with lemma bag stats against each label
        that shares a lemma with it, in label order."""
        label_of = self.label_of
        shared = {label_of[m] for tok in stats[0] for m in self.lemma_holders[tok]}
        shared.discard(None)
        bags = self.label_groups.bags
        return {k: self._merge_delta(stats, bags[k]) for k in sorted(shared)}

    def _key_weights(self, total):
        """log n + merge normaliser against a table of lemma total total, per
        (n tables, lemma total) key: the CRP weight of a label with that key
        that shares no lemma with the table."""
        logs = self._logs
        return {(n, t): logs[n] + self._normaliser(total, t) for n, t in self.keys}

    def _delta(self, k, total, shared):
        """Merge ratio of a table of lemma total total against label k."""
        d = shared.get(k)
        return self._normaliser(total, self.label_groups.bags[k][1]) if d is None else d

    def _new_table_terms(self, shared, weights, log_denom):
        """Log terms of the CRP conditional of a new table with its label
        summed out: alpha_0, each label sharing a lemma with the table, and
        one term per key for the m labels of that key that share none."""
        logs, tables, bags = self._logs, self.tables, self.label_groups.bags
        terms = [self._log_alpha_0 - log_denom]
        left = dict(self.keys)
        for k, d in shared.items():
            n_k = tables[k]
            terms.append(logs[n_k] - log_denom + d)
            left[n_k, bags[k][1]] -= 1
        for key, m in left.items():
            if m:
                terms.append(logs[m] + weights[key] - log_denom)
        return terms

    def _weigh(self, i, cands, links, table, bag, side):
        """Log weight of each customer candidate, its prior times the merge
        ratio of i's table, unlabelled first, with the target's label, or for
        the self candidate the CRP conditional of a new table with its label
        summed out; returned with the label weights for _place.  Customer
        links close no cycle, so the table has its head iff no side splits."""
        self._relabel(table, bag, None, side is None)
        total = bag[1]
        shared = self._shared_deltas(bag)
        weights = self._key_weights(total)
        # every table but i's has a head with a label (_check_core says so),
        # so the components other than i's count the labelled tables; a
        # virtual split adds one component to those the graph holds
        log_denom = math.log(len(self.graph.groups.members) - (side is None) + self.alpha_0)
        marg = _log_sum_exp(self._new_table_terms(shared, weights, log_denom))
        label_of = self.label_of
        log_weights = []
        for j, _, lw in cands:
            d = marg if j == i else self._delta(label_of[j], total, shared)
            log_weights.append(lw + d)
        if self.debug:
            deltas = self._debug_check_deltas(i, bag, shared)
            terms = [self._log_alpha_0 - log_denom]
            terms += [math.log(self.tables[k]) - log_denom + d for k, d in deltas.items()]
            full = _log_sum_exp(terms)
            if abs(marg - full) > 1e-12 * max(1.0, abs(full)):
                raise AssertionError(f"grouped marginal {marg} != per-label sum {full}")
        return log_weights, (shared, weights)

    def _place(self, i, table, bag, target, scored, rng):
        """Give i's table the label of target's table, or draw it from the
        label weights if i now heads a table."""
        label = self._draw_label(rng, *scored) if target == i else self.label_of[target]
        self._relabel(table, bag, label, target == i)

    def _draw_label(self, rng, shared, weights):
        """Existing label k with weight n_k times its merge ratio, a new label
        with weight alpha_0; a label sharing no lemma reads its key's weight."""
        tables, bags, logs = self.tables, self.label_groups.bags, self._logs
        labels = sorted(tables)
        log_weights = [
            logs[tables[k]] + shared[k] if k in shared else weights[tables[k], bags[k][1]]
            for k in labels
        ]
        log_weights.append(self._log_alpha_0)
        choice = _draw(rng, log_weights)
        if choice == len(labels):
            label = self.next_label
            self.next_label += 1
            return label
        return labels[choice]

    def sample_table_label(self, head, rng):
        """CRP label move for one table: existing cluster k with weight
        n_k times the merge ratio, a new cluster with weight alpha_0."""
        if self.cl[head] != head:
            raise ValueError(f"mention {head} does not head a table")
        table = self.graph.members(head)
        stats_t = self.graph.bag(head)
        self._relabel(table, stats_t, None, True)
        shared = self._shared_deltas(stats_t)
        if self.debug:
            self._debug_check_deltas(head, stats_t, shared)
        label = self._draw_label(rng, shared, self._key_weights(stats_t[1]))
        self._relabel(table, stats_t, label, True)
        if self.debug:
            self._check_core()
        return label

    def sweep(self, rng):
        super().sweep(rng)
        for head in self._heads():
            self.sample_table_label(head, rng)

    def _label_parts(self):
        """Mentions of each label, from the tables rebuilt from scratch."""
        groups = {}
        for table in super()._parts():
            head = next(m for m in table if self.cl[m] == m)
            groups.setdefault(self.label_of[head], []).extend(table)
        return groups

    def _parts(self):
        # tables come in first-mention order, so labels do too
        return [sorted(g) for g in self._label_parts().values()]

    def _check_core(self):
        super()._check_core()
        expected = {k: set(g) for k, g in self._label_parts().items()}
        for k, members in expected.items():
            if any(self.label_of[m] != k for m in members):
                raise AssertionError(f"maintained labels of label {k}'s mentions are stale")
        self.label_groups.check(expected, "label")
        tables = Counter(self.label_of[head] for head in self._heads())
        if self.tables != tables:
            raise AssertionError("maintained table counts of labels differ from a rebuild")
        keys = Counter((t, self.label_groups.bags[k][1]) for k, t in tables.items())
        if self.keys != keys:
            raise AssertionError("maintained (tables, lemma total) keys differ from a rebuild")

    def joint_log_score(self):
        score = self._links_log_prior()
        score += crp_partition_log_prob(sorted(self.tables.values()), self.alpha_0)
        return score + self._groups_loglik(self.label_groups, self.label_of)

    def _debug_check_deltas(self, i, stats, shared):
        """Check every label's delta against the merge ratio of the full bags,
        and against the from-scratch likelihood gap between head i's
        unlabelled table joining that label and starting a fresh one; return
        the deltas by label."""
        deltas = {k: self._delta(k, stats[1], shared) for k in self.tables}
        for k, d in deltas.items():
            full = self._merge_delta(stats, self.label_groups.bags[k])
            if d != full:
                raise AssertionError(f"label {k}: delta {d} != merge ratio {full} of the full bags")
        self.label_of[i] = self.next_label
        base = self._scratch_loglik()
        for k, d in deltas.items():
            self.label_of[i] = k
            gap = self._scratch_loglik() - base
            if abs(gap - d) > 1e-9:
                raise AssertionError(
                    f"incremental ratio {d} != from-scratch {gap} (mention {i}, label {k})"
                )
        self.label_of[i] = None
        return deltas


class FlatDdcrpState(_StateBase):
    """Single-level links over the whole corpus, no sequential restriction."""


_STATE_CLASSES = {
    "hddcrp": HddcrpState,
    "hddcrp_star": TableCrpState,
    "hdp_lex": TableCrpState,
    "ddcrp_flat": FlatDdcrpState,
}


def init_state(corpus, config, rng, priors=None, pairwise=None, resources=None, params=None):
    """Build a chain state with links drawn uniformly from their supports."""
    if priors is None:
        priors = build_priors(corpus, config, pairwise, resources)
    if params is None:
        params = LikelihoodParams.for_corpus(corpus, config.concentration)
    state = _STATE_CLASSES[config.model](corpus, config, priors, params)
    state.init_links(rng)
    return state


@dataclass(frozen=True)
class ChainResult:
    chain_index: int
    final_clustering: ClusterAssignment
    estimate: ClusterAssignment
    loglik_trace: tuple

    def __post_init__(self):
        if len(self.loglik_trace) == 0:
            raise ValueError("empty trace")


def _run_chain(corpus, config, priors, params, index, seed_seq):
    rng = np.random.default_rng(seed_seq)
    state = init_state(corpus, config, rng, priors=priors, params=params)
    for _ in range(config.burn_in):
        state.sweep(rng)
    trace = []
    best_score = -math.inf
    best = None
    for _ in range(config.iterations):
        state.sweep(rng)
        s = state.joint_log_score()
        trace.append(s)
        if config.map_estimate and s > best_score:
            best_score = s
            best = state.clustering()
    final = state.clustering()
    estimate = best if config.map_estimate else final
    return ChainResult(index, final, estimate, tuple(trace))


def run_chains(corpus, config, pairwise=None, resources=None, priors=None, jobs=1):
    """Run config.chains independent chains with seeds derived from config.seed."""
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    if priors is None:
        priors = build_priors(corpus, config, pairwise, resources)
    params = LikelihoodParams.for_corpus(corpus, config.concentration)
    seeds = np.random.SeedSequence(config.seed).spawn(config.chains)
    args = [(corpus, config, priors, params, k, seeds[k]) for k in range(config.chains)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, config.chains)) as pool:
            futures = [pool.submit(_run_chain, *a) for a in args]
            return [f.result() for f in futures]
    return [_run_chain(*a) for a in args]


def enumerate_exact_posterior(corpus, config, priors=None, pairwise=None, resources=None):
    """Exact clustering posterior for the two-level link model by brute force.

    Enumerates every sequential customer-link configuration and, for each, the
    table links of its heads only: non-head table links never touch the
    clustering, so with normalized per-mention priors they sum out exactly.
    Returns a map ClusterAssignment -> probability.
    """
    if config.model != "hddcrp":
        raise InputError("exact enumeration covers only the hddcrp link structure")
    n = sum(len(d.mentions) for d in corpus.documents)
    if n > 8:
        raise InputError(f"exact enumeration supports at most 8 mentions, got {n}")
    if priors is None:
        priors = build_priors(corpus, config, pairwise, resources)
    params = LikelihoodParams.for_corpus(corpus, config.concentration)
    state = HddcrpState(corpus, config, priors, params)

    def normalized(cands):
        z = reduce(add, (w for _, w in cands), 0.0)
        return [(j, math.log(w / z)) for j, w in cands]

    cust = [normalized(c) for c in priors.customer]
    tab = [normalized(c) for c in priors.table]

    loglik_memo = {}

    def loglik(key, parts):
        got = loglik_memo.get(key)
        if got is None:
            got = loglik_memo[key] = state._partition_loglik(parts)
        return got

    log_mass = {}
    for combo in itertools.product(*cust):
        links = [j for j, _ in combo]
        prior_a = reduce(add, (lp for _, lp in combo), 0.0)
        heads = [i for i in range(n) if links[i] == i]
        for tcombo in itertools.product(*(tab[h] for h in heads)):
            table_links = list(range(n))
            prior_c = prior_a
            for h, (j, lp) in zip(heads, tcombo):
                table_links[h] = j
                prior_c += lp
            parts = clusters_from_links(links, table_links)
            key = ClusterAssignment.from_index_partition(state.mention_ids, parts)
            w = prior_c + loglik(tuple(key.labels), parts)
            prev = log_mass.get(key)
            log_mass[key] = w if prev is None else np.logaddexp(prev, w)
    top = max(log_mass.values())
    masses = {k: math.exp(v - top) for k, v in log_mass.items()}
    z = reduce(add, masses.values(), 0.0)
    return {k: v / z for k, v in masses.items()}

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
A label draw takes one exponential per key and per label sharing a lemma
(Labels); a clustering is read off the maintained component ids or labels.

A move over a lone self candidate spends the uniform a draw would and
proposes nothing; in the table models only the label move is left.  An
inactive hddcrp table link draws from its prior's partial sums.  `Priors`
builds those, with the log candidates and log-prior maps, once for every
chain state built from it.  Both short paths keep the floats and the
uniform stream of the full move.

Each scan loop takes the uniforms of the draws it is sure to make, one per
move, from one batched call of the generator and any further ones singly:
the same stream as scalar draws, so seeded chains do not change.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add

import numpy as np

from .errors import InputError
from .features import pair_blocks
from .likelihood import (
    LikelihoodParams,
    lemma_bags,
    log_marginal_raw,
    merge_normaliser_raw,
    merge_ratio_from,
    merge_ratio_raw,
    split_ratio_raw,
)
from .links import ClusterAssignment, _components

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
    The log forms the chain states read are built on first use, once for
    every chain that shares these priors.
    """

    customer: tuple
    table: tuple | None = None

    @cached_property
    def customer_logs(self):
        """_with_logs of the customer supports."""
        return _with_logs(self.customer)

    @cached_property
    def table_logs(self):
        """_with_logs of the table supports, and the partial sums of each
        prior-only table link draw, as _draw builds them."""
        cands, log_priors = _with_logs(self.table)
        return cands, log_priors, [_partial_sums([lw for _, lw in c]) for c in cands]


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


def build_priors(corpus, config, pairwise=None, resources=None, uniform=False):
    """Assemble link supports for a model from trained distances, or from a
    distance of 1.0 on every allowed link if uniform; hdp_lex is always
    uniform."""
    n = len(corpus.mention_ids)
    doc_of = corpus.doc_of()
    kind = config.model
    alpha_d, alpha_0 = config.alpha_d, config.resolved_alpha_0

    # only hddcrp tables and ddcrp_flat links leave the document
    across = kind in ("hddcrp", "ddcrp_flat")
    uniform = uniform or kind == "hdp_lex"
    parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
    if uniform:
        for rows, cols, r, c in pair_blocks(corpus.bounds, across):
            parts.append((rows.start + r, cols.start + c, np.ones(len(r))))
    elif pairwise is None or resources is None:
        raise InputError(f"model {kind!r} needs a trained distance model")
    else:
        floor = pairwise.truncation_threshold
        parts += pairwise.scored_pairs(corpus, resources, floor, floor if across else None)
    i, j, w = (np.concatenate(x) for x in zip(*parts))

    if kind == "ddcrp_flat":
        return Priors(_support(n, alpha_0, *_both_ways(i, j, w)))

    # the later mention of a same-document pair links back to the earlier
    same = doc_of[i] == doc_of[j]
    customer = _support(n, alpha_d, j[same], i[same], w[same])
    table = None
    if kind == "hddcrp":
        i, j, w = i[~same], j[~same], w[~same]
        if not uniform:
            w = pairwise.cross_doc_factors(corpus.documents)[doc_of[i], doc_of[j]] * w
        table = _support(n, alpha_0, *_both_ways(i, j, w))
    return Priors(customer, table)


# Float sums that reach an output add left to right with reduce(add, ...):
# sum() of floats is compensated from Python 3.12 on, so its last bits
# depend on the interpreter.


class _Uniforms:
    """The uniform stream of rng for a loop sure to make m draws: the first
    m come from one rng.random(m) call, later ones from rng.random().  It
    yields the same values as scalar calls and leaves rng in the same state,
    at a fraction of the per-draw cost."""

    def __init__(self, rng, m):
        self._rng = rng
        self._batch = rng.random(m).tolist()[::-1]

    def random(self):
        batch = self._batch
        return batch.pop() if batch else self._rng.random()


def _partial_sums(log_weights):
    """Left-to-right partial sums of exp(log_weights), max-shifted."""
    top = max(log_weights)
    return list(itertools.accumulate([math.exp(x - top) for x in log_weights]))


def _draw(rng, log_weights):
    """Index sampled proportionally to exp(log_weights): the first whose
    partial sum reaches u, a uniform draw below the total."""
    acc = _partial_sums(log_weights)
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


def _with_logs(supports):
    """Per-mention candidate tuples (target, log weight) and maps target ->
    log prior, the log weight less the log of the mention's total weight,
    from the (target, weight) supports of Priors."""
    cands = tuple(tuple((j, math.log(w)) for j, w in c) for c in supports)
    norms = [math.log(reduce(add, (w for _, w in c), 0.0)) for c in supports]
    if not all(map(math.isfinite, norms)):
        raise InputError("link weights overflow: lower gamma or the concentrations")
    return cands, tuple({j: lw - z for j, lw in c} for c, z in zip(cands, norms))


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


class _StateBase:
    """Shared precomputation over the canonical mention order, and the
    link-graph core each model keeps over its active links."""

    def __init__(self, corpus, config, priors, params):
        order = corpus.mentions_in_order()
        self.config = config
        self.params = params
        self.n = len(order)
        self.mention_ids = corpus.mention_ids
        # a flat likelihood is one over empty bags: every ratio and marginal is 0.0
        lemmas = (() if config.flat_likelihood else m.span_lemmas for m in order)
        self.span_counts, _, self._bag = lemma_bags(lemmas)
        self.debug = config.debug
        self.cand_c, self.log_prior_c = priors.customer_logs
        self.cl = list(range(self.n))
        # (candidates, log priors, links) of each link level, in draw order
        self._levels = ((self.cand_c, self.log_prior_c, self.cl),)

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

    def _groups_loglik(self, bags, key_of):
        """_scratch_loglik from the maintained cluster bags, key_of[m] being
        the key of mention m's cluster: summed in the order of their first
        mentions, which is the order _parts() gives."""
        total = 0.0
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
        edge with links[i] = i: for a customer link of hddcrp, its table link.

        A lone candidate is the self candidate, and links[i] holds it already:
        the move spends the one uniform _draw would and proposes nothing, and
        _lone_move does what is left."""
        if len(cands) == 1:
            rng.random()
            return self._lone_move(i, rng)
        graph = self.graph
        old = self._edge(i)
        side = graph.side(i, old)
        links[i] = i
        if side is None:
            part, bag = graph.component(i)
        else:
            part, bag = side, self._bag(side)
        log_weights, scored = self._weigh(i, cands, links, part, bag, side)
        links[i] = cands[_draw(rng, log_weights)][0]
        self._place(i, part, bag, links[i], scored, rng)
        graph.move(i, old, self._edge(i), side, bag)
        if self.debug:
            self._check_core()
        return links[i]

    def _lone_move(self, i, rng):
        """Finish a move over the lone self candidate: the edges say it all."""
        if self.debug:
            self._check_core()
        return i

    def _weigh(self, i, cands, links, part, bag, side):
        """Log weight of each candidate, its prior times the merge ratio of
        i's part with its target's component: 0.0 for a target on i's side,
        the split ratio in the rest of i's component; _place needs nothing."""
        comp = self.graph.comp
        home = comp[i]
        bags = self.graph.bags
        self_target = self._edge(i)
        if side is None:
            delta_by_comp = {home: 0.0}
        else:
            rest = split_ratio_raw(bag, bags[home], self.params)
            delta_by_comp = {}
        deltas = []
        log_weights = []
        for j, lw in cands:
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
        for (j, _), delta in zip(cands, deltas):
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
            for _, log_priors, links in self._levels:
                score += log_priors[i][links[i]]
        return score

    def _clusters(self):
        """Bag of each maintained cluster id, and each mention's cluster id."""
        return self.graph.bags, self.graph.comp

    def joint_log_score(self):
        return self._links_log_prior() + self._groups_loglik(*self._clusters())

    def clustering(self):
        """The clustering, read off the maintained cluster ids."""
        ids = self.mention_ids
        out = ClusterAssignment(ids, self._clusters()[1])
        if self.debug and out != ClusterAssignment.from_index_partition(ids, self._parts()):
            raise AssertionError("clustering from the maintained ids differs from a rebuild")
        return out

    def sample_customer_link(self, i, rng):
        return self._link_move(i, self.cand_c[i], self.cl, rng)

    def sweep(self, rng):
        order = self._scan_order(rng)
        draws = _Uniforms(rng, self.n)  # every move draws at least its link
        for i in order:
            self.sample_customer_link(i, draws)


class HddcrpState(_StateBase):
    """Full two-level link state: customer links plus table links."""

    def __init__(self, corpus, config, priors, params):
        super().__init__(corpus, config, priors, params)
        if priors.table is None:
            raise InputError("hddcrp needs table-link priors")
        self.cand_t, self.log_prior_t, self._prior_sums_t = priors.table_logs
        self.tl = list(range(self.n))
        self._levels += ((self.cand_t, self.log_prior_t, self.tl),)

    def _edge(self, m):
        # a table link is active only on a table head
        c = self.cl[m]
        return c if c != m else self.tl[m]

    def sample_table_link(self, i, rng):
        cands = self.cand_t[i]
        if self.cl[i] != i:
            # inactive link: the clustering ignores it, so prior only
            acc = self._prior_sums_t[i]
            self.tl[i] = cands[bisect_left(acc, rng.random() * acc[-1])][0]
            if self.debug:
                self._check_core()
            return self.tl[i]
        return self._link_move(i, cands, self.tl, rng)

    def sweep(self, rng):
        super().sweep(rng)
        order = self._scan_order(rng)
        draws = _Uniforms(rng, self.n)
        for i in order:
            self.sample_table_link(i, draws)


class Labels:
    """The top level of a Chinese restaurant franchise (Teh, Jordan, Beal &
    Blei 2006, Hierarchical Dirichlet Processes): a plain CRP that seats the
    tables of hddcrp_star and hdp_lex at cluster labels.

    It keeps each mention's label (of), each label's lemma bag (bags) and
    key id (key_of), the number of labels per key id (keys) and the next
    fresh label.  A key is a label's (tables, lemma total); move() gives each
    key a small int id the first time the chain meets it (key_ids), and
    key_table[id] is that key.  A label has a key exactly while it seats a
    table; labels come in increasing order and never come back, so key_of
    holds them in ascending order.

    A table is scored against every label.  Only labels that share a lemma
    with it, found through a lemma -> mentions index, need the full merge
    ratio; any other label's CRP weight, log n + merge normaliser, depends
    on its key alone and is memoised per chain and moving-table total.  So
    the summed-out label of a new table takes one term per key, and the
    label draw one exponential per key and per sharing label.
    """

    def __init__(self, span_counts, params, alpha_0):
        n = len(span_counts)
        self.params = params
        self.alpha_0 = alpha_0
        self.log_alpha_0 = math.log(alpha_0)
        # logs[k] is math.log(k) for every table or label count k a state reaches
        self._logs = [-math.inf] + [math.log(k) for k in range(1, n + 1)]
        self.lemma_holders = {}  # lemma -> mentions whose span holds it
        for m, counts in enumerate(span_counts):
            for tok in counts:
                self.lemma_holders.setdefault(tok, []).append(m)
        self._normalisers = {}  # table's total -> {label's total: merge normaliser}
        self._weights = {}  # table's total -> {key id: log n + merge normaliser}
        self.of = [None] * n  # label of each mention's table, None while it moves
        self.bags = {}  # label -> lemma bag of its mentions
        self.key_of = {}  # label -> its key id
        self.keys = {}  # key id -> labels with that key
        self.key_ids = {}  # (tables, lemma total) -> its key id
        self.key_table = []  # key id -> its (tables, lemma total)
        self.next_label = n

    def fresh(self):
        """A label no table has carried."""
        self.next_label += 1
        return self.next_label - 1

    def move(self, table, bag, k, step, headed):
        """Seat (step 1) the mentions of one table and its lemma bag bag at
        label k, or unseat them (step -1), counting the table itself only if
        headed, that is if it holds its head.  k's key counts down, then up:
        new_table_terms sums in the order that leaves in keys."""
        of = self.of
        label = k if step > 0 else None
        for m in table:
            of[m] = label
        key_of, keys = self.key_of, self.keys
        kid = key_of.get(k)
        t = step * headed
        if kid is not None:
            t += self.key_table[kid][0]
            left = keys[kid] - 1
            if left:
                keys[kid] = left
            else:
                del keys[kid]
        _shift_bag(self.bags, k, bag, step)
        if t:
            key = (t, self.bags[k][1])
            kid = self.key_ids.setdefault(key, len(self.key_table))
            if kid == len(self.key_table):
                self.key_table.append(key)
            key_of[k] = kid
            keys[kid] = keys.get(kid, 0) + 1
        else:
            # every table carries its head's label, so k has no mentions left
            del key_of[k], self.bags[k]

    def take(self, table, bag, headed):
        """Unseat a table as move() does and score it against the labels:
        the merge ratio with each label that shares a lemma with it, found
        through the lemma index, in label order; and the table total's memo
        of key id -> log n + merge normaliser, the CRP weight of a label with
        that key sharing no lemma.  The memo gains the live keys it lacks, and
        the table total's row of merge normalisers their totals, so the row
        then holds every label's: delta reads it, and each merge ratio adds
        to it only the terms of the shared lemmas."""
        self.move(table, bag, self.of[next(iter(table))], -1, headed)
        of, bags, params = self.of, self.bags, self.params
        total = bag[1]
        row = self._normalisers.setdefault(total, {})
        weights = self._weights.setdefault(total, {})
        for kid in self.keys:
            if kid not in weights:
                t, label_total = self.key_table[kid]
                if label_total not in row:
                    row[label_total] = merge_normaliser_raw(total, label_total, params)
                weights[kid] = self._logs[t] + row[label_total]
        shared = {of[m] for tok in bag[0] for m in self.lemma_holders[tok]}
        shared.discard(None)
        shared = {
            k: merge_ratio_from(row[bags[k][1]], bag[0], bags[k][0], params)
            for k in sorted(shared)
        }
        return shared, weights

    def delta(self, k, total, shared):
        """Merge ratio of a table of lemma total total against label k, once
        take() has filled the normaliser row."""
        d = shared.get(k)
        return self._normalisers[total][self.bags[k][1]] if d is None else d

    def new_table_terms(self, shared, weights, log_denom):
        """Log terms of the CRP conditional of a new table with its label
        summed out: alpha_0, each label sharing a lemma with the table, and
        one term per key for the m labels of that key that share none."""
        logs, key_of, key_table = self._logs, self.key_of, self.key_table
        terms = [self.log_alpha_0 - log_denom]
        taken = {}  # key id -> labels of that key that share a lemma
        for k, d in shared.items():
            kid = key_of[k]
            terms.append(logs[key_table[kid][0]] - log_denom + d)
            taken[kid] = taken.get(kid, 0) + 1
        for kid, m in self.keys.items():
            m -= taken.get(kid, 0)
            if m:
                terms.append(logs[m] + weights[kid] - log_denom)
        return terms

    def draw(self, rng, shared, weights):
        """Existing label k with weight n_k times its merge ratio, a new label
        with weight alpha_0, drawn as _draw draws over the sorted labels, from
        one exponential per key with a label sharing no lemma and per sharing label."""
        key_of, logs, key_table = self.key_of, self._logs, self.key_table
        own, left = {}, dict(self.keys)  # left: key id -> its labels sharing no lemma
        for k, d in shared.items():
            kid = key_of[k]
            own[k] = logs[key_table[kid][0]] + d
            left[kid] -= 1
        exps = {kid: weights[kid] for kid, m in left.items() if m}
        top = max([self.log_alpha_0, *own.values(), *exps.values()])
        for kid, w in exps.items():
            exps[kid] = math.exp(w - top)
        labels = list(key_of)
        terms = list(map(exps.get, key_of.values()))
        for k, x in own.items():
            terms[bisect_left(labels, k)] = math.exp(x - top)
        terms.append(math.exp(self.log_alpha_0 - top))
        acc = list(itertools.accumulate(terms))
        choice = bisect_left(acc, rng.random() * acc[-1])
        return labels[choice] if choice < len(labels) else self.fresh()

    def check(self, groups, heads, bag_of):
        """Raise AssertionError unless the labels match a rebuild from groups,
        the mentions of each label, and heads, the table heads."""
        bags = {}
        for k, members in groups.items():
            if any(self.of[m] != k for m in members):
                raise AssertionError(f"maintained labels of label {k}'s mentions are stale")
            bags[k] = bag_of(members)
        for k in bags.keys() | self.bags.keys():
            if self.bags.get(k) != bags.get(k):
                raise AssertionError(f"lemma bag of label {k} differs from a rebuild")
        if self.key_ids != {key: kid for kid, key in enumerate(self.key_table)}:
            raise AssertionError("key ids and the id -> key table disagree")
        key_table = self.key_table
        label_keys = {k: key_table[kid] for k, kid in self.key_of.items()}
        tables = Counter(self.of[head] for head in heads)
        if {k: key[0] for k, key in label_keys.items()} != tables:
            raise AssertionError("maintained table counts of labels differ from a rebuild")
        if label_keys != {k: (t, bags[k][1]) for k, t in tables.items()}:
            raise AssertionError("maintained label -> key map differs from a rebuild")
        if self.keys != Counter(self.key_of.values()):
            raise AssertionError("maintained (tables, lemma total) keys differ from a rebuild")
        if list(self.key_of) != sorted(self.key_of):
            raise AssertionError("labels in key_of are out of ascending order")
        for total, weights in self._weights.items():
            row = self._normalisers[total]
            for kid, w in weights.items():
                t, label_total = key_table[kid]
                if w != self._logs[t] + row[label_total]:
                    raise AssertionError(
                        f"memoised weight of a key for table total {total} is stale"
                    )


class TableCrpState(_StateBase):
    """Within-document links plus CRP cluster labels on table heads, for
    hddcrp_star and hdp_lex, which differ only in the customer priors.  The
    tables are the link-graph components, and Labels seats them; this class
    gives the shared link move its label weights (_weigh) and step (_place).
    """

    def _start_graph(self):
        """Build the link graph and seat every table at a fresh label."""
        super()._start_graph()
        alpha_0 = self.config.resolved_alpha_0
        labels = self.labels = Labels(self.span_counts, self.params, alpha_0)
        for head in self._heads():
            labels.move(*self.graph.component(head), labels.fresh(), 1, True)

    def _heads(self):
        """Mentions whose customer link is a self-loop, in ascending order."""
        return [m for m in range(self.n) if self.cl[m] == m]

    def _weigh(self, i, cands, links, table, bag, side):
        """Log weight of each customer candidate, its prior times the merge
        ratio of i's table, unseated first, with the target's label, or for
        the self candidate the CRP conditional of a new table with its label
        summed out; returned with the label weights for _place.  Customer
        links close no cycle, so the table has its head iff no side splits."""
        labels = self.labels
        shared, weights = labels.take(table, bag, side is None)
        total = bag[1]
        # every table but i's has a head with a label (_check_core says so),
        # so the components other than i's count the labelled tables; a
        # virtual split adds one component to those the graph holds
        log_denom = math.log(len(self.graph.members) - (side is None) + labels.alpha_0)
        marg = _log_sum_exp(labels.new_table_terms(shared, weights, log_denom))
        label_of = labels.of
        log_weights = []
        for j, lw in cands:
            d = marg if j == i else labels.delta(label_of[j], total, shared)
            log_weights.append(lw + d)
        if self.debug:
            deltas = self._debug_check_deltas(i, bag, shared)
            terms = [labels.log_alpha_0 - log_denom]
            terms += [
                math.log(labels.key_table[labels.key_of[k]][0]) - log_denom + d
                for k, d in deltas.items()
            ]
            full = _log_sum_exp(terms)
            if abs(marg - full) > 1e-12 * max(1.0, abs(full)):
                raise AssertionError(f"grouped marginal {marg} != per-label sum {full}")
        return log_weights, (shared, weights)

    def _lone_move(self, i, rng):
        """i heads its table, so only the table's label moves."""
        self.sample_table_label(i, rng)
        return i

    def _place(self, i, table, bag, target, scored, rng):
        """Seat i's table at the label of target's table, or at one drawn
        from the label weights if i now heads a table."""
        labels = self.labels
        label = labels.draw(rng, *scored) if target == i else labels.of[target]
        labels.move(table, bag, label, 1, target == i)

    def sample_table_label(self, head, rng):
        """CRP label move for one table: existing cluster k with weight
        n_k times the merge ratio, a new cluster with weight alpha_0.  The
        table is unseated and _place, the customer move's label step, draws
        and sets the new one."""
        if self.cl[head] != head:
            raise ValueError(f"mention {head} does not head a table")
        table, bag = self.graph.component(head)
        scored = self.labels.take(table, bag, True)
        if self.debug:
            self._debug_check_deltas(head, bag, scored[0])
        self._place(head, table, bag, head, scored, rng)
        if self.debug:
            self._check_core()
        return self.labels.of[head]

    def sweep(self, rng):
        super().sweep(rng)
        heads = self._heads()
        draws = _Uniforms(rng, len(heads))
        for head in heads:
            self.sample_table_label(head, draws)

    def _label_parts(self):
        """Mentions of each label, from the tables rebuilt from scratch."""
        groups = {}
        for table in super()._parts():
            head = next(m for m in table if self.cl[m] == m)
            groups.setdefault(self.labels.of[head], []).extend(table)
        return groups

    def _parts(self):
        # tables come in first-mention order, so labels do too
        return [sorted(g) for g in self._label_parts().values()]

    def _check_core(self):
        super()._check_core()
        self.labels.check(self._label_parts(), self._heads(), self._bag)

    def _clusters(self):
        return self.labels.bags, self.labels.of

    def joint_log_score(self):
        labels = self.labels
        score = self._links_log_prior()
        tables = sorted(labels.key_table[kid][0] for kid in labels.key_of.values())
        score += crp_partition_log_prob(tables, labels.alpha_0)
        return score + self._groups_loglik(*self._clusters())

    def _debug_check_deltas(self, i, stats, shared):
        """Check every label's delta against the merge ratio of the full bags,
        and against the from-scratch likelihood gap between head i's
        unseated table joining that label and starting a fresh one; return
        the deltas by label."""
        labels = self.labels
        deltas = {k: labels.delta(k, stats[1], shared) for k in labels.key_of}
        for k, d in deltas.items():
            full = self._merge_delta(stats, labels.bags[k])
            if d != full:
                raise AssertionError(f"label {k}: delta {d} != merge ratio {full} of the full bags")
        labels.of[i] = labels.next_label
        base = self._scratch_loglik()
        for k, d in deltas.items():
            labels.of[i] = k
            gap = self._scratch_loglik() - base
            if abs(gap - d) > 1e-9:
                raise AssertionError(
                    f"incremental ratio {d} != from-scratch {gap} (mention {i}, label {k})"
                )
        labels.of[i] = None
        return deltas


class FlatDdcrpState(_StateBase):
    """Single-level links over the whole corpus, no sequential restriction."""


_STATE_CLASSES = {
    "hddcrp": HddcrpState,
    "hddcrp_star": TableCrpState,
    "hdp_lex": TableCrpState,
    "ddcrp_flat": FlatDdcrpState,
}


def init_state(corpus, config, rng, priors, params=None):
    """Build a chain state with links drawn uniformly from their supports."""
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
    for sweep in range(config.burn_in + 1, config.burn_in + config.iterations + 1):
        state.sweep(rng)
        s = state.joint_log_score()
        if not math.isfinite(s):
            raise InputError(f"chain {index}: joint log score is {s} after sweep {sweep}")
        trace.append(s)
        if config.map_estimate and s > best_score:
            best_score = s
            best = state.clustering()
    final = state.clustering()
    estimate = best if config.map_estimate else final
    return ChainResult(index, final, estimate, tuple(trace))


def run_chains(corpus, config, priors, jobs=1):
    """Run config.chains independent chains with seeds derived from config.seed."""
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    params = LikelihoodParams.for_corpus(corpus, config.concentration)
    seeds = np.random.SeedSequence(config.seed).spawn(config.chains)
    args = [(corpus, config, priors, params, k, seeds[k]) for k in range(config.chains)]
    if jobs > 1:
        # imported here: multiprocessing costs every start-up that runs no pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, config.chains)) as pool:
            futures = [pool.submit(_run_chain, *a) for a in args]
            return [f.result() for f in futures]
    return [_run_chain(*a) for a in args]


def enumerate_exact_posterior(corpus, config, priors):
    """Exact clustering posterior for the two-level link model by brute force.

    Enumerates every sequential customer-link configuration and, for each, the
    table links of its heads only: non-head table links never touch the
    clustering, so with normalized per-mention priors they sum out exactly.
    Returns a map ClusterAssignment -> probability.
    """
    if config.model != "hddcrp":
        raise InputError("exact enumeration covers only the hddcrp link structure")
    n = len(corpus.mention_ids)
    if n > 8:
        raise InputError(f"exact enumeration supports at most 8 mentions, got {n}")
    params = LikelihoodParams.for_corpus(corpus, config.concentration)
    state = HddcrpState(corpus, config, priors, params)

    def normalized(cands):
        z = reduce(add, (w for _, w in cands), 0.0)
        # a weight far below the total has a quotient that underflows to 0
        return [(j, math.log(w / z) if w / z else math.log(w) - math.log(z)) for j, w in cands]

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
        state.cl[:] = [j for j, _ in combo]
        prior_a = reduce(add, (lp for _, lp in combo), 0.0)
        heads = [i for i in range(n) if state.cl[i] == i]
        for tcombo in itertools.product(*(tab[h] for h in heads)):
            prior_c = prior_a
            for h, (j, lp) in zip(heads, tcombo):
                state.tl[h] = j
                prior_c += lp
            # non-head table links are inactive, so stale ones change nothing
            parts = state._parts()
            key = ClusterAssignment.from_index_partition(state.mention_ids, parts)
            w = prior_c + loglik(key.labels, parts)
            prev = log_mass.get(key)
            log_mass[key] = w if prev is None else np.logaddexp(prev, w)
    top = max(log_mass.values())
    masses = {k: math.exp(v - top) for k, v in log_mass.items()}
    z = reduce(add, masses.values(), 0.0)
    return {k: v / z for k, v in masses.items()}

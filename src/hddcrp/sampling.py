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

For hddcrp_star and hdp_lex a customer-link move is blocked with the label of
the table it may create: the label is summed out over the CRP conditional, and
drawn afterwards only if the mention actually becomes a head.  Labels of all
other tables never change during the move, and because the CRP over tables is
exchangeable their probability is a common factor across candidates.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .likelihood import (
    LikelihoodParams,
    log_marginal_raw,
    merge_ratio_raw,
)
from .links import ClusterAssignment, LinkState, clusters_from_links

MODELS = ("hddcrp", "hddcrp_star", "ddcrp_flat", "hdp_lex")

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
        if self.burn_in < 0:
            raise InputError("burn_in must be nonnegative")
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


def _fn_links(pairs, fn):
    """(row, target, weight) arrays of fn over (row, target, *args) tuples."""
    rows, targets, weights = [], [], []
    for i, j, *args in pairs:
        rows.append(i)
        targets.append(j)
        weights.append(fn(*args))
    return (
        np.array(rows, dtype=np.intp),
        np.array(targets, dtype=np.intp),
        np.array(weights, dtype=np.float64),
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


def build_priors(corpus, config, pairwise=None, resources=None, within_fn=None, cross_fn=None):
    """Assemble link supports for a model from trained distances.

    within_fn(a, b) and cross_fn(a, b, doc_a, doc_b) override the trained
    distances; hdp_lex always uses constant within-document weights.
    """
    order = corpus.mentions_in_order()
    n = len(order)
    documents = sorted(corpus.documents, key=lambda d: d.doc_id)
    doc_index = {d.doc_id: k for k, d in enumerate(documents)}
    docs = [doc_index[m.doc_id] for m in order]
    doc_of = np.array(docs, dtype=np.intp)
    kind = config.model
    alpha_d, alpha_0 = config.alpha_d, config.resolved_alpha_0

    if kind == "hdp_lex":
        within_fn = lambda a, b: 1.0
    trained_cross = kind == "hddcrp" and cross_fn is None and len(documents) > 1
    if within_fn is None or trained_cross:
        if pairwise is None or resources is None:
            raise InputError(f"model {kind!r} needs a trained distance model")
        i, j, w = _trained_pairs(pairwise, order, resources)

    if kind == "ddcrp_flat":
        if within_fn is None:
            links = _both_ways(i, j, w)
        else:
            links = _fn_links(
                ((k, h, a, b) for k, a in enumerate(order) for h, b in enumerate(order) if h != k),
                within_fn,
            )
        return Priors(_support(n, alpha_0, *links))

    if within_fn is None:
        # the later mention of a same-document pair links back to the earlier
        same = doc_of[i] == doc_of[j]
        links = (j[same], i[same], w[same])
    else:
        first = {}  # doc -> index of its first mention in the canonical order
        for k, d in enumerate(docs):
            first.setdefault(d, k)
        links = _fn_links(
            ((k, h, a, order[h]) for k, a in enumerate(order) for h in range(first[docs[k]], k)),
            within_fn,
        )
    customer = _support(n, alpha_d, *links)

    table = None
    if kind == "hddcrp":
        if trained_cross:
            cross = doc_of[i] != doc_of[j]
            i, j = i[cross], j[cross]
            w = pairwise.cross_doc_factors(documents)[doc_of[i], doc_of[j]] * w[cross]
            links = _both_ways(i, j, w)
        else:
            links = _fn_links(
                (
                    (k, h, a, b, documents[docs[k]], documents[docs[h]])
                    for k, a in enumerate(order)
                    for h, b in enumerate(order)
                    if docs[k] != docs[h]
                ),
                cross_fn,
            )
        table = _support(n, alpha_0, *links)
    return Priors(customer, table)


def _component_labels(n, edges):
    """Label connected components of an undirected edge list over 0..n-1."""
    neigh = [[] for _ in range(n)]
    for a, b in edges:
        if a != b:
            neigh[a].append(b)
            neigh[b].append(a)
    lab = [-1] * n
    count = 0
    for start in range(n):
        if lab[start] >= 0:
            continue
        lab[start] = count
        stack = [start]
        while stack:
            u = stack.pop()
            for v in neigh[u]:
                if lab[v] < 0:
                    lab[v] = count
                    stack.append(v)
        count += 1
    return lab, count


def _draw(rng, log_weights):
    """Index sampled proportionally to exp(log_weights), max-shifted."""
    top = max(log_weights)
    probs = [math.exp(x - top) for x in log_weights]
    u = rng.random() * sum(probs)
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if u <= acc:
            return k
    return len(probs) - 1


def crp_partition_log_prob(sizes, alpha):
    """Log EPPF of a CRP partition: alpha^K prod (n_k-1)! / rising(alpha, n)."""
    n = sum(sizes)
    out = len(sizes) * math.log(alpha)
    for s in sizes:
        out += math.lgamma(s)
    for t in range(n):
        out -= math.log(alpha + t)
    return out


class _StateBase:
    """Shared precomputation over the canonical mention order."""

    def __init__(self, corpus, config, priors, params):
        order = corpus.mentions_in_order()
        self.corpus = corpus
        self.config = config
        self.priors = priors
        self.params = params
        self.n = len(order)
        self.mention_ids = tuple(m.mention_id for m in order)
        doc_ids = sorted(d.doc_id for d in corpus.documents)
        doc_index = {d: k for k, d in enumerate(doc_ids)}
        self.doc_of = tuple(doc_index[m.doc_id] for m in order)
        self.span_counts = []
        self.span_totals = []
        for m in order:
            counts = {}
            for tok in m.span_lemmas:
                counts[tok] = counts.get(tok, 0) + 1
            self.span_counts.append(counts)
            self.span_totals.append(len(m.span_lemmas))
        self.flat = config.flat_likelihood
        self.debug = config.debug
        # per-mention candidate tuples (target, weight, log weight)
        self.cand_c = tuple(
            tuple((j, w, math.log(w)) for j, w in cands) for cands in priors.customer
        )
        self.log_norm_c = tuple(
            math.log(sum(w for _, w in cands)) for cands in priors.customer
        )

    def _stats_of_label(self, lab, wanted, cache):
        got = cache.get(wanted)
        if got is None:
            counts = {}
            total = 0
            for m in range(self.n):
                if lab[m] == wanted:
                    for tok, c in self.span_counts[m].items():
                        counts[tok] = counts.get(tok, 0) + c
                    total += self.span_totals[m]
            got = (counts, total)
            cache[wanted] = got
        return got

    def _merge_delta(self, a, b):
        if self.flat:
            return 0.0
        return merge_ratio_raw(
            a[0], a[1], b[0], b[1], self.params.concentration, self.params.vocab_size
        )

    def _log_marginal(self, counts, total):
        if self.flat:
            return 0.0
        return log_marginal_raw(
            counts, total, self.params.concentration, self.params.vocab_size
        )

    def _partition_loglik(self, lab, count):
        total = 0.0
        if self.flat:
            return total
        cache = {}
        for k in range(count):
            counts, tot = self._stats_of_label(lab, k, cache)
            total += self._log_marginal(counts, tot)
        return total

    def _scan_order(self, rng):
        if self.config.randomized_scan:
            return [int(i) for i in rng.permutation(self.n)]
        return range(self.n)

    def clustering(self):
        lab, count = self._full_labels()
        parts = [[] for _ in range(count)]
        for m, k in enumerate(lab):
            parts[k].append(m)
        return ClusterAssignment.from_index_partition(self.mention_ids, parts)


class HddcrpState(_StateBase):
    """Full two-level link state: customer links plus table links."""

    def __init__(self, corpus, config, priors, params):
        super().__init__(corpus, config, priors, params)
        if priors.table is None:
            raise InputError("hddcrp needs table-link priors")
        self.cand_t = tuple(
            tuple((j, w, math.log(w)) for j, w in cands) for cands in priors.table
        )
        self.log_norm_t = tuple(
            math.log(sum(w for _, w in cands)) for cands in priors.table
        )
        self.cl = list(range(self.n))
        self.tl = list(range(self.n))

    def init_links(self, rng):
        for i in range(self.n):
            self.cl[i] = self.cand_c[i][int(rng.integers(len(self.cand_c[i])))][0]
            self.tl[i] = self.cand_t[i][int(rng.integers(len(self.cand_t[i])))][0]

    def _edges_without(self, i):
        cl, tl = self.cl, self.tl
        for m in range(self.n):
            if m == i:
                continue
            if cl[m] != m:
                yield m, cl[m]
            elif tl[m] != m:
                yield m, tl[m]

    def _full_labels(self):
        cl, tl = self.cl, self.tl

        def edges():
            for m in range(self.n):
                if cl[m] != m:
                    yield m, cl[m]
                elif tl[m] != m:
                    yield m, tl[m]

        return _component_labels(self.n, edges())

    def _move(self, i, cands, is_customer, rng):
        lab, _ = _component_labels(self.n, self._edges_without(i))
        cache = {}
        home = lab[i]
        stats_i = self._stats_of_label(lab, home, cache)
        deltas = []
        delta_by_comp = {home: 0.0}
        log_weights = []
        for j, _, lw in cands:
            # the self candidate of a customer move re-activates i's table link
            target = self.tl[i] if (is_customer and j == i) else j
            comp = lab[target]
            d = delta_by_comp.get(comp)
            if d is None:
                d = self._merge_delta(stats_i, self._stats_of_label(lab, comp, cache))
                delta_by_comp[comp] = d
            deltas.append(d)
            log_weights.append(lw + d)
        choice = _draw(rng, log_weights)
        if self.debug:
            self._debug_check(i, cands, deltas, is_customer)
        if is_customer:
            self.cl[i] = cands[choice][0]
        else:
            self.tl[i] = cands[choice][0]
        return cands[choice][0]

    def sample_customer_link(self, i, rng):
        return self._move(i, self.cand_c[i], True, rng)

    def sample_table_link(self, i, rng):
        cands = self.cand_t[i]
        if self.cl[i] != i:
            # inactive link: the clustering ignores it, so prior only
            choice = _draw(rng, [lw for _, _, lw in cands])
            self.tl[i] = cands[choice][0]
            return self.tl[i]
        return self._move(i, cands, False, rng)

    def sweep(self, rng):
        for i in self._scan_order(rng):
            self.sample_customer_link(i, rng)
        for i in self._scan_order(rng):
            self.sample_table_link(i, rng)

    def joint_log_score(self):
        score = 0.0
        for i in range(self.n):
            for j, _, lw in self.cand_c[i]:
                if j == self.cl[i]:
                    score += lw - self.log_norm_c[i]
                    break
            for j, _, lw in self.cand_t[i]:
                if j == self.tl[i]:
                    score += lw - self.log_norm_t[i]
                    break
        return score + self._partition_loglik(*self._full_labels())

    def snapshot(self):
        return LinkState(self.mention_ids, self.doc_of, tuple(self.cl), tuple(self.tl))

    def _scratch_loglik(self):
        parts = clusters_from_links(self.cl, self.tl)
        total = 0.0
        for part in parts:
            counts = {}
            tot = 0
            for m in part:
                for tok, c in self.span_counts[m].items():
                    counts[tok] = counts.get(tok, 0) + c
                tot += self.span_totals[m]
            total += self._log_marginal(counts, tot)
        return total

    def _debug_check(self, i, cands, deltas, is_customer):
        save_cl, save_tl = self.cl[i], self.tl[i]
        self.cl[i], self.tl[i] = i, i
        base = self._scratch_loglik()
        for (j, _, _), delta in zip(cands, deltas):
            if is_customer:
                self.cl[i], self.tl[i] = j, save_tl
            else:
                self.cl[i], self.tl[i] = i, j
            gap = self._scratch_loglik() - base
            if abs(gap - delta) > 1e-9:
                raise AssertionError(
                    f"incremental ratio {delta} != from-scratch {gap} "
                    f"(mention {i}, candidate {j})"
                )
        self.cl[i], self.tl[i] = save_cl, save_tl


class TableCrpState(_StateBase):
    """Within-document links plus CRP cluster labels on table heads.

    Serves hddcrp_star and hdp_lex; they differ only in the customer priors.
    """

    def __init__(self, corpus, config, priors, params):
        super().__init__(corpus, config, priors, params)
        self.alpha_0 = config.resolved_alpha_0
        self.cl = list(range(self.n))
        self.labels = {i: i for i in range(self.n)}
        self.next_label = self.n

    def init_links(self, rng):
        for i in range(self.n):
            self.cl[i] = self.cand_c[i][int(rng.integers(len(self.cand_c[i])))][0]
        self.labels = {}
        for i in range(self.n):
            if self.cl[i] == i:
                self.labels[i] = self.next_label
                self.next_label += 1

    def _roots(self):
        """Table head of every mention; links point backward, so one pass."""
        cl = self.cl
        root = [0] * self.n
        for m in range(self.n):
            root[m] = m if cl[m] == m else root[cl[m]]
        return root

    def _label_aggregates(self, root, skip_head):
        """Cluster stats and table counts over all tables except skip_head's."""
        stats = {}
        tables = {}
        for h, k in self.labels.items():
            if h == skip_head:
                continue
            tables[k] = tables.get(k, 0) + 1
            if k not in stats:
                stats[k] = ({}, 0)
        for m in range(self.n):
            h = root[m]
            if h == skip_head:
                continue
            k = self.labels[h]
            counts, total = stats[k]
            for tok, c in self.span_counts[m].items():
                counts[tok] = counts.get(tok, 0) + c
            stats[k] = (counts, total + self.span_totals[m])
        return stats, tables

    def _group_stats(self, members):
        counts = {}
        total = 0
        for m in members:
            for tok, c in self.span_counts[m].items():
                counts[tok] = counts.get(tok, 0) + c
            total += self.span_totals[m]
        return counts, total

    def sample_customer_link(self, i, rng):
        """Blocked move: resample a_i with the label of a would-be new table
        summed out, then draw that label if i really becomes a head."""
        self.cl[i] = i
        self.labels.pop(i, None)
        root = self._roots()
        detached = [m for m in range(self.n) if root[m] == i]
        stats_i = self._group_stats(detached)
        stats, tables = self._label_aggregates(root, skip_head=i)
        other_tables = sum(tables.values())
        denom = other_tables + self.alpha_0

        label_delta = {}

        def delta_for(k):
            d = label_delta.get(k)
            if d is None:
                d = self._merge_delta(stats_i, stats[k])
                label_delta[k] = d
            return d

        cands = self.cand_c[i]
        log_weights = []
        for j, _, lw in cands:
            if j == i:
                # sum the CRP conditional over labels for the detached table
                terms = [math.log(self.alpha_0) - math.log(denom)]
                for k, cnt in tables.items():
                    terms.append(math.log(cnt) - math.log(denom) + delta_for(k))
                top = max(terms)
                marg = top + math.log(sum(math.exp(t - top) for t in terms))
                log_weights.append(lw + marg)
            else:
                log_weights.append(lw + delta_for(self.labels[root[j]]))
        choice = _draw(rng, log_weights)
        if self.debug:
            self._debug_check_customer(i, label_delta)
        target = cands[choice][0]
        self.cl[i] = target
        if target == i:
            self.labels[i] = self._draw_label(rng, tables, delta_for)
        return target

    def _draw_label(self, rng, tables, delta_for):
        keys = sorted(tables)
        log_weights = [math.log(tables[k]) + delta_for(k) for k in keys]
        log_weights.append(math.log(self.alpha_0))
        choice = _draw(rng, log_weights)
        if choice == len(keys):
            label = self.next_label
            self.next_label += 1
            return label
        return keys[choice]

    def sample_table_label(self, head, rng):
        """CRP label move for one table: existing cluster k with weight
        n_k times the merge ratio, a new cluster with weight alpha_0."""
        if self.cl[head] != head:
            raise ValueError(f"mention {head} does not head a table")
        root = self._roots()
        members = [m for m in range(self.n) if root[m] == head]
        stats_t = self._group_stats(members)
        self.labels.pop(head)
        stats, tables = self._label_aggregates(root, skip_head=head)

        label_delta = {}

        def delta_for(k):
            d = label_delta.get(k)
            if d is None:
                d = self._merge_delta(stats_t, stats[k])
                label_delta[k] = d
            return d

        label = self._draw_label(rng, tables, delta_for)
        if self.debug:
            self._debug_check_labels(head, stats_t, stats, label_delta)
        self.labels[head] = label
        return label

    def sweep(self, rng):
        for i in self._scan_order(rng):
            self.sample_customer_link(i, rng)
        for head in sorted(self.labels):
            self.sample_table_label(head, rng)

    def _full_labels(self):
        root = self._roots()
        remap = {}
        lab = [0] * self.n
        for m in range(self.n):
            k = self.labels[root[m]]
            if k not in remap:
                remap[k] = len(remap)
            lab[m] = remap[k]
        return lab, len(remap)

    def joint_log_score(self):
        score = 0.0
        for i in range(self.n):
            for j, _, lw in self.cand_c[i]:
                if j == self.cl[i]:
                    score += lw - self.log_norm_c[i]
                    break
        sizes = {}
        for k in self.labels.values():
            sizes[k] = sizes.get(k, 0) + 1
        score += crp_partition_log_prob(sorted(sizes.values()), self.alpha_0)
        return score + self._partition_loglik(*self._full_labels())

    def snapshot(self):
        return (tuple(self.cl), dict(self.labels))

    def _scratch_partition_loglik(self):
        root = self._roots()
        groups = {}
        for m in range(self.n):
            groups.setdefault(self.labels[root[m]], []).append(m)
        return sum(self._log_marginal(*self._group_stats(g)) for g in groups.values())

    def _debug_check_customer(self, i, label_delta):
        # base state: i detached as its own fresh table
        restore = self.next_label
        self.labels[i] = self.next_label
        self.next_label += 1
        base = self._scratch_partition_loglik()
        del self.labels[i]
        self.next_label = restore
        for k, delta in label_delta.items():
            self.labels[i] = k
            gap = self._scratch_partition_loglik() - base
            del self.labels[i]
            if abs(gap - delta) > 1e-9:
                raise AssertionError(
                    f"incremental ratio {delta} != from-scratch {gap} "
                    f"(mention {i}, label {k})"
                )

    def _debug_check_labels(self, head, stats_t, stats, label_delta):
        for k, delta in label_delta.items():
            counts = dict(stats_t[0])
            for tok, c in stats[k][0].items():
                counts[tok] = counts.get(tok, 0) + c
            merged = self._log_marginal(counts, stats_t[1] + stats[k][1])
            gap = merged - self._log_marginal(*stats_t) - self._log_marginal(*stats[k])
            if abs(gap - delta) > 1e-9:
                raise AssertionError(
                    f"incremental ratio {delta} != from-scratch {gap} "
                    f"(head {head}, label {k})"
                )


class FlatDdcrpState(_StateBase):
    """Single-level links over the whole corpus, no sequential restriction."""

    def __init__(self, corpus, config, priors, params):
        super().__init__(corpus, config, priors, params)
        self.cl = list(range(self.n))

    def init_links(self, rng):
        for i in range(self.n):
            self.cl[i] = self.cand_c[i][int(rng.integers(len(self.cand_c[i])))][0]

    def _full_labels(self):
        cl = self.cl
        return _component_labels(self.n, ((m, cl[m]) for m in range(self.n)))

    def sample_customer_link(self, i, rng):
        cl = self.cl
        lab, _ = _component_labels(
            self.n, ((m, cl[m]) for m in range(self.n) if m != i)
        )
        cache = {}
        home = lab[i]
        stats_i = self._stats_of_label(lab, home, cache)
        delta_by_comp = {home: 0.0}
        deltas = []
        log_weights = []
        cands = self.cand_c[i]
        for j, _, lw in cands:
            comp = lab[j]
            d = delta_by_comp.get(comp)
            if d is None:
                d = self._merge_delta(stats_i, self._stats_of_label(lab, comp, cache))
                delta_by_comp[comp] = d
            deltas.append(d)
            log_weights.append(lw + d)
        choice = _draw(rng, log_weights)
        if self.debug:
            self._debug_check(i, cands, deltas)
        self.cl[i] = cands[choice][0]
        return self.cl[i]

    def sweep(self, rng):
        for i in self._scan_order(rng):
            self.sample_customer_link(i, rng)

    def joint_log_score(self):
        score = 0.0
        for i in range(self.n):
            for j, _, lw in self.cand_c[i]:
                if j == self.cl[i]:
                    score += lw - self.log_norm_c[i]
                    break
        return score + self._partition_loglik(*self._full_labels())

    def snapshot(self):
        return tuple(self.cl)

    def _scratch_loglik(self):
        lab, count = self._full_labels()
        return self._partition_loglik(lab, count)

    def _debug_check(self, i, cands, deltas):
        save = self.cl[i]
        self.cl[i] = i
        base = self._scratch_loglik()
        for (j, _, _), delta in zip(cands, deltas):
            self.cl[i] = j
            gap = self._scratch_loglik() - base
            if abs(gap - delta) > 1e-9:
                raise AssertionError(
                    f"incremental ratio {delta} != from-scratch {gap} "
                    f"(mention {i}, candidate {j})"
                )
        self.cl[i] = save


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


def sample_customer_link(state, i, rng):
    return state.sample_customer_link(i, rng)


def sample_table_link(state, i, rng):
    return state.sample_table_link(i, rng)


def hddcrp_star_table_assignment(state, table_head, rng):
    return state.sample_table_label(table_head, rng)


def gibbs_sweep(state, rng):
    state.sweep(rng)
    return state


def ddcrp_flat_sweep(state, rng):
    state.sweep(rng)
    return state


def hdp_lex_sweep(state, rng):
    state.sweep(rng)
    return state


@dataclass(frozen=True)
class ChainResult:
    chain_index: int
    final_state: object
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
    return ChainResult(index, state.snapshot(), final, estimate, tuple(trace))


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
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
        z = sum(w for _, w in cands)
        return [(j, math.log(w / z)) for j, w in cands]

    cust = [normalized(c) for c in priors.customer]
    tab = [normalized(c) for c in priors.table]

    loglik_memo = {}

    def loglik(key, parts):
        got = loglik_memo.get(key)
        if got is None:
            got = 0.0
            for part in parts:
                counts = {}
                total = 0
                for m in part:
                    for tok, c in state.span_counts[m].items():
                        counts[tok] = counts.get(tok, 0) + c
                    total += state.span_totals[m]
                got += state._log_marginal(counts, total)
            loglik_memo[key] = got
        return got

    log_mass = {}
    for combo in itertools.product(*cust):
        links = [j for j, _ in combo]
        prior_a = sum(lp for _, lp in combo)
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
    z = sum(masses.values())
    return {k: v / z for k, v in masses.items()}

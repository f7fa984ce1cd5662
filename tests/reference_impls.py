"""Independent reference implementations used as test oracles.

Everything here recomputes results from first principles (set counting,
dense log-gamma sums, exhaustive enumeration) without touching the package's
own incremental code paths, so agreement is meaningful evidence.
"""

import itertools
import math

import numpy as np
from scipy.special import gammaln


def prf(p_num, p_den, r_num, r_den):
    p = p_num / p_den if p_den else 0.0
    r = r_num / r_den if r_den else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


# ---------------------------------------------------------------------------
# Coreference metrics
# ---------------------------------------------------------------------------


def _muc_half(a_side, b_side):
    num = den = 0
    for cluster in a_side:
        touched = {frozenset(other) for other in b_side if cluster & other}
        num += len(cluster) - len(touched)
        den += len(cluster) - 1
    return num, den


def muc_reference(gold, pred):
    r_num, r_den = _muc_half(gold, pred)
    p_num, p_den = _muc_half(pred, gold)
    return prf(p_num, p_den, r_num, r_den)


def b_cubed_reference(gold, pred):
    gold_of = {m: g for g in gold for m in g}
    pred_of = {m: p for p in pred for m in p}
    mentions = sorted(gold_of)
    r_num = sum(len(gold_of[m] & pred_of[m]) / len(gold_of[m]) for m in mentions)
    p_num = sum(len(gold_of[m] & pred_of[m]) / len(pred_of[m]) for m in mentions)
    return prf(p_num, len(mentions), r_num, len(mentions))


def ceaf_e_reference(gold, pred):
    """Optimal one-to-one cluster alignment by exhaustive bitmask search."""
    gold = [frozenset(g) for g in gold]
    pred = [frozenset(p) for p in pred]
    small, large = (gold, pred) if len(gold) <= len(pred) else (pred, gold)
    phi = [
        [2.0 * len(a & b) / (len(a) + len(b)) for b in large] for a in small
    ]
    memo = {}

    def solve(i, used):
        if i == len(small):
            return 0.0
        key = (i, used)
        got = memo.get(key)
        if got is None:
            got = solve(i + 1, used)
            for j in range(len(large)):
                if not used >> j & 1:
                    got = max(got, phi[i][j] + solve(i + 1, used | 1 << j))
            memo[key] = got
        return got

    total = solve(0, 0)
    return prf(total, len(pred), total, len(gold))


# ---------------------------------------------------------------------------
# Dirichlet-multinomial marginal and CRP partition probability
# ---------------------------------------------------------------------------


def dirichlet_marginal_reference(counts, vocab_size, concentration):
    """Dense log-gamma evaluation over the full vocabulary, zeros included."""
    total = sum(counts.values())
    out = gammaln(vocab_size * concentration) - gammaln(vocab_size * concentration + total)
    dense = list(counts.values()) + [0] * (vocab_size - len(counts))
    for c in dense:
        out += gammaln(concentration + c) - gammaln(concentration)
    return float(out)


def crp_eppf(sizes, alpha):
    """CRP probability of one labelled-in-order-of-appearance partition."""
    n = sum(sizes)
    log_p = len(sizes) * math.log(alpha)
    for s in sizes:
        log_p += gammaln(s)
    for i in range(n):
        log_p -= math.log(alpha + i)
    return math.exp(log_p)


# ---------------------------------------------------------------------------
# Connected components via union-find (independent of the package's BFS)
# ---------------------------------------------------------------------------


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            return True
        return False


def components_reference(n, edges):
    uf = UnionFind(n)
    for a, b in edges:
        uf.union(a, b)
    groups = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return sorted(sorted(g) for g in groups.values())


# ---------------------------------------------------------------------------
# Exhaustive posteriors for the link-based samplers
# ---------------------------------------------------------------------------


def set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + [part[k] + [first]] + part[k + 1 :]
        yield part + [[first]]


def _normalized_log_rows(rows):
    out = []
    for row in rows:
        z = sum(w for _, w in row)
        out.append([(j, math.log(w / z)) for j, w in row])
    return out


def _accumulate(log_mass, key, value):
    prev = log_mass.get(key)
    log_mass[key] = value if prev is None else float(np.logaddexp(prev, value))


def _normalize(log_mass):
    top = max(log_mass.values())
    masses = {k: math.exp(v - top) for k, v in log_mass.items()}
    z = sum(masses.values())
    return {k: v / z for k, v in masses.items()}


def enumerate_star_posterior(n, doc_of, within_weight, alpha_d, alpha_0, cluster_loglik):
    """Exact posterior of within-document links + CRP-partitioned tables.

    within_weight(i, j) is the prior weight of linking i back to j (same doc,
    j < i); the self link carries alpha_d.  Tables (components of the links)
    are partitioned by a CRP with concentration alpha_0, scored by its EPPF.
    """
    rows = []
    for i in range(n):
        row = [(i, alpha_d)]
        for j in range(i):
            if doc_of[j] == doc_of[i]:
                w = within_weight(i, j)
                if w > 0:
                    row.append((j, w))
        rows.append(row)
    rows = _normalized_log_rows(rows)

    log_mass = {}
    for combo in itertools.product(*rows):
        links = [j for j, _ in combo]
        lp_links = sum(lp for _, lp in combo)
        tables = components_reference(n, [(i, j) for i, j in enumerate(links)])
        for groups in set_partitions(range(len(tables))):
            clusters = [
                frozenset(m for t in group for m in tables[t]) for group in groups
            ]
            lp = lp_links + math.log(crp_eppf([len(g) for g in groups], alpha_0))
            lp += sum(cluster_loglik(c) for c in clusters)
            _accumulate(log_mass, frozenset(clusters), lp)
    return _normalize(log_mass)


def enumerate_flat_posterior(n, weight, cluster_loglik):
    """Exact posterior of a single-level link model over all n mentions.

    weight(i, j) is the prior weight of mention i linking to j (self weight
    included); clusters are connected components of the link graph.
    """
    rows = []
    for i in range(n):
        row = [(j, weight(i, j)) for j in range(n) if weight(i, j) > 0]
        rows.append(row)
    rows = _normalized_log_rows(rows)

    log_mass = {}
    for combo in itertools.product(*rows):
        links = [j for j, _ in combo]
        lp = sum(x for _, x in combo)
        parts = components_reference(n, [(i, j) for i, j in enumerate(links)])
        clusters = [frozenset(p) for p in parts]
        lp += sum(cluster_loglik(c) for c in clusters)
        _accumulate(log_mass, frozenset(clusters), lp)
    return _normalize(log_mass)


def total_variation(p, q):
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


# ---------------------------------------------------------------------------
# Pair-by-pair link priors and agglomerative clustering
# ---------------------------------------------------------------------------


def priors_reference(corpus, config, pairwise, resources):
    """(customer, table) candidate lists scored one pair at a time with the
    per-pair distance methods: self candidate first, then every earlier
    same-document (or, for ddcrp_flat, any other) mention with a positive
    weight, targets ascending; table candidates for hddcrp only."""
    order = corpus.mentions_in_order()
    docs = {d.doc_id: d for d in corpus.documents}
    kind = config.model

    def within(a, b):
        if kind == "hdp_lex":
            return 1.0
        if kind == "ddcrp_flat":
            return pairwise.truncated_similarity(a, b, resources)
        return pairwise.within_doc_distance(a, b, resources)

    customer, table = [], []
    for i, a in enumerate(order):
        if kind == "ddcrp_flat":
            allowed = [j for j in range(len(order)) if j != i]
            self_weight = config.resolved_alpha_0
        else:
            allowed = [j for j in range(i) if order[j].doc_id == a.doc_id]
            self_weight = config.alpha_d
        row = [(j, within(a, order[j])) for j in allowed]
        customer.append([(i, self_weight)] + [(j, w) for j, w in row if w > 0])
        if kind == "hddcrp":
            row = [
                (j, pairwise.cross_doc_distance(a, b, docs[a.doc_id], docs[b.doc_id], resources))
                for j, b in enumerate(order)
                if b.doc_id != a.doc_id
            ]
            table.append([(i, config.resolved_alpha_0)] + [(j, w) for j, w in row if w > 0])
    return customer, (table if kind == "hddcrp" else None)


def agglomerative_reference(corpus, model, resources, wd_threshold, cd_threshold):
    """Partition (sets of mention ids) of the two-phase single-link baseline:
    closure of within-document pairs at or above wd_threshold, then closure
    of within-document clusters whose best truncated cross-document pair
    similarity is at or above cd_threshold."""
    order = corpus.mentions_in_order()
    n = len(order)
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i)
        if order[i].doc_id == order[j].doc_id
        and model.pair_similarity(order[i], order[j], resources) >= wd_threshold
    ]
    clusters = components_reference(n, edges)
    merges = []
    for x in range(len(clusters)):
        for y in range(x):
            if order[clusters[x][0]].doc_id == order[clusters[y][0]].doc_id:
                continue
            best = max(
                model.truncated_similarity(order[a], order[b], resources)
                for a in clusters[x]
                for b in clusters[y]
            )
            if best >= cd_threshold:
                merges.append((x, y))
    return {
        frozenset(order[m].mention_id for k in group for m in clusters[k])
        for group in components_reference(len(clusters), merges)
    }

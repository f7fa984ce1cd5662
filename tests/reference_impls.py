"""Independent reference implementations used as test oracles.

Everything here recomputes results from first principles (set counting,
dense log-gamma sums, exhaustive enumeration) without touching the package's
own incremental code paths, so agreement is meaningful evidence.
"""

import builtins
import itertools
import math

import numpy as np
from scipy.special import expit, gammaln

from hddcrp import pairwise
from hddcrp.corpus import doc_similarity
from hddcrp.features import PairFeatures, pair_blocks
from hddcrp.likelihood import log_marginal_raw, merge_ratio_raw
from hddcrp.sampling import _draw


def compensated_sum(values, start=0):
    """sum() as Python 3.12 computes it: exact over ints, and a Neumaier
    compensated sum once a float appears."""
    values = list(values)
    if not any(isinstance(v, float) for v in values):
        return builtins.sum(values, start)
    total, error = float(start), 0.0
    for v in values:
        t = total + v
        error += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + error


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


# Per-unit counts and score from set intersections over partitions restricted
# to each unit, with CEAF_e aligned by scipy.optimize.linear_sum_assignment:
# the package's results must equal these bit for bit.


def muc_counts_by_sets(gold, pred):
    def side(chains, against):
        num = den = 0
        cluster_of = {m: k for k, part in enumerate(against) for m in part}
        for chain in chains:
            num += len(chain) - len({cluster_of[m] for m in chain})
            den += len(chain) - 1
        return num, den

    return (*side(gold, pred), *side(pred, gold))


def b_cubed_counts_by_sets(gold, pred):
    gold_of = {m: part for part in gold for m in part}
    pred_of = {m: part for part in pred for m in part}
    overlap = {m: len(gold_of[m] & pred_of[m]) for m in gold_of}
    r_num = math.fsum(overlap[m] / len(gold_of[m]) for m in gold_of)
    p_num = math.fsum(overlap[m] / len(pred_of[m]) for m in gold_of)
    return r_num, len(gold_of), p_num, len(gold_of)


def ceaf_e_counts_scipy(gold, pred):
    from scipy.optimize import linear_sum_assignment

    gold, pred = list(gold), list(pred)
    if not gold or not pred:
        return 0.0, len(gold), 0.0, len(pred)
    phi = np.zeros((len(gold), len(pred)))
    for i, g in enumerate(gold):
        for j, s in enumerate(pred):
            inter = len(g & s)
            if inter:
                phi[i, j] = 2.0 * inter / (len(g) + len(s))
    rows, cols = linear_sum_assignment(phi, maximize=True)
    mass = float(phi[rows, cols].sum())
    return mass, len(gold), mass, len(pred)


def clustering_of(groups, mention_ids=None):
    """The ClusterAssignment over mention_ids (by default every id in groups,
    sorted) whose clusters are the given sets of mention ids.  When the
    groups list their clusters in order of first mention in mention_ids,
    partition() lists them in the same order."""
    from hddcrp.links import ClusterAssignment

    label = {m: k for k, group in enumerate(groups) for m in group}
    ids = sorted(label) if mention_ids is None else list(mention_ids)
    return ClusterAssignment(ids, [label[m] for m in ids])


def score_reference(corpus, gold, pred, setting):
    """metrics.score with each part intersected with every unit, in sorted
    unit order."""
    from hddcrp.metrics import ScoreReport, _prf

    gold, pred = gold.partition(), pred.partition()
    units = {}
    for d in corpus.documents:
        key = d.doc_id if setting == "WD" else d.seminal_event_id
        units.setdefault(key, set()).update(m.mention_id for m in d.mentions)
    counts = (muc_counts_by_sets, b_cubed_counts_by_sets, ceaf_e_counts_scipy)
    totals = [[0.0] * 4 for _ in counts]
    for key in sorted(units):
        g = [part & units[key] for part in gold if part & units[key]]
        p = [part & units[key] for part in pred if part & units[key]]
        for total, fn in zip(totals, counts):
            for k, v in enumerate(fn(g, p)):
                total[k] += v
    return ScoreReport(setting, *map(_prf, totals))


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
# Penalized logistic objective
# ---------------------------------------------------------------------------
# Not independent: these call the package's own terms, each computing its
# margins apart, so that pairwise._objective, which shares one margin product
# between value and gradient, must equal them exactly.


def penalized_loglik(theta, features, labels, l2):
    """sum log sigmoid(y * theta . x) - l2 * ||theta||^2."""
    return pairwise._loglik(theta, labels * (features @ theta), l2)


def penalized_grad(theta, features, labels, l2):
    return pairwise._grad(theta, features, labels, labels * (features @ theta), l2)


# ---------------------------------------------------------------------------
# Pair-by-pair link priors and agglomerative clustering
# ---------------------------------------------------------------------------


def training_pairs_reference(corpus, sigma):
    """(a, b, coreferent) triples of canonical mention indices, built pair by
    pair: every within-document pair of a later mention a with an earlier
    one b, documents by doc_id, then every cross-document pair once for each
    document pair with doc_similarity at least sigma."""
    index = {m.mention_id: k for k, m in enumerate(corpus.mentions_in_order())}
    chain_of = {mid: k for k, chain in enumerate(corpus.gold) for mid in chain}

    def pair(a, b):
        ka = chain_of.get(a.mention_id)
        coreferent = ka is not None and ka == chain_of.get(b.mention_id)
        return index[a.mention_id], index[b.mention_id], coreferent

    docs = sorted(corpus.documents, key=lambda d: d.doc_id)
    pairs = [pair(a, b) for d in docs for i, a in enumerate(d.mentions) for b in d.mentions[:i]]
    for i, d in enumerate(docs):
        for d2 in docs[i + 1 :]:
            if doc_similarity(d, d2) >= sigma:
                pairs += [pair(a, b) for a in d.mentions for b in d2.mentions]
    return pairs


def similarity_block(model, features, i, j):
    """pair_similarity of the pairs (i[p], j[p]) of a PairFeatures list, as
    an array, every pair scored: the logit adds theta_k * feature_k one
    feature at a time, in the order of pair_values."""
    logit = model.theta[features.pos_table[features.tag[i], features.tag[j]]]
    logit += model.theta[features.bias]
    for k, values in features.pair_values(i, j, features.dots(i, j)):
        logit += model.theta[k] * values
    return expit(logit, out=logit)


def scored_pairs_reference(model, corpus, resources, within, across):
    """PairwiseModel.scored_pairs by the full walk: every pair of
    features.pair_blocks is scored with similarity_block, and the pairs at or
    above their floor are yielded, one block at a time."""
    features = PairFeatures(model.extractor, corpus.mentions_in_order(), resources)
    doc_of = corpus.doc_of()
    for rows, cols, r, c in pair_blocks(corpus.bounds, across is not None):
        i, j = rows.start + r, cols.start + c
        sims = similarity_block(model, features, i, j)
        floors = within if across is None else np.where(doc_of[i] == doc_of[j], within, across)
        keep = sims >= floors
        yield i[keep], j[keep], sims[keep]


def priors_reference(corpus, config, pairwise=None, resources=None, uniform=False):
    """(customer, table) candidate tuples scored one pair at a time with the
    per-pair distance methods, or with distance 1.0 if uniform: self
    candidate first, then every earlier same-document (or, for ddcrp_flat,
    any other) mention with a positive weight, targets ascending; table
    candidates for hddcrp only."""
    order = corpus.mentions_in_order()
    docs = {d.doc_id: d for d in corpus.documents}
    kind = config.model

    def within(a, b):
        if uniform or kind == "hdp_lex":
            return 1.0
        if kind == "ddcrp_flat":
            return pairwise.truncated_similarity(a, b, resources)
        return pairwise.within_doc_distance(a, b, resources)

    def cross(a, b):
        if uniform:
            return 1.0
        return pairwise.cross_doc_distance(a, b, docs[a.doc_id], docs[b.doc_id], resources)

    customer, table = [], []
    for i, a in enumerate(order):
        if kind == "ddcrp_flat":
            allowed = [j for j in range(len(order)) if j != i]
            self_weight = config.resolved_alpha_0
        else:
            allowed = [j for j in range(i) if order[j].doc_id == a.doc_id]
            self_weight = config.alpha_d
        row = [(j, within(a, order[j])) for j in allowed]
        customer.append(((i, self_weight), *[(j, w) for j, w in row if w > 0]))
        if kind == "hddcrp":
            row = [(j, cross(a, b)) for j, b in enumerate(order) if b.doc_id != a.doc_id]
            table.append(((i, config.resolved_alpha_0), *[(j, w) for j, w in row if w > 0]))
    return tuple(customer), (tuple(table) if kind == "hddcrp" else None)


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


# ---------------------------------------------------------------------------
# Gibbs samplers that rebuild the link graph on every move
# ---------------------------------------------------------------------------
#
# These are the samplers as they were before the link-graph core: every move
# relabels the components of all mentions (or re-aggregates every CRP label)
# in O(n).  Given the same priors and generator they must make the same
# draws as the package's states, so links, labels and scores agree exactly.


def _rebuild_component_labels(n, edges):
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


def _rebuild_draw(rng, log_weights):
    top = max(log_weights)
    probs = [math.exp(x - top) for x in log_weights]
    u = rng.random() * sum(probs)
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if u <= acc:
            return k
    return len(probs) - 1


def _rebuild_crp_log_prob(sizes, alpha):
    out = len(sizes) * math.log(alpha)
    for s in sizes:
        out += math.lgamma(s)
    for t in range(sum(sizes)):
        out -= math.log(alpha + t)
    return out


class _RebuildBase:
    def __init__(self, corpus, config, priors, params):
        order = corpus.mentions_in_order()
        self.config = config
        self.params = params
        self.n = len(order)
        self.span_counts = []
        self.span_totals = []
        for m in order:
            counts = {}
            for tok in m.span_lemmas:
                counts[tok] = counts.get(tok, 0) + 1
            self.span_counts.append(counts)
            self.span_totals.append(len(m.span_lemmas))
        self.flat = config.flat_likelihood
        self.cand_c = tuple(
            tuple((j, w, math.log(w)) for j, w in cands) for cands in priors.customer
        )
        self.log_norm_c = tuple(math.log(sum(w for _, w in c)) for c in priors.customer)
        self.cl = list(range(self.n))

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
            got = cache[wanted] = (counts, total)
        return got

    def _merge_delta(self, a, b):
        if self.flat:
            return 0.0
        return merge_ratio_raw(a[0], a[1], b[0], b[1], self.params)

    def _partition_loglik(self, lab, count):
        total = 0.0
        if self.flat:
            return total
        cache = {}
        for k in range(count):
            counts, tot = self._stats_of_label(lab, k, cache)
            total += log_marginal_raw(counts, tot, self.params)
        return total

    def _scan_order(self, rng):
        if self.config.randomized_scan:
            return [int(i) for i in rng.permutation(self.n)]
        return range(self.n)

    def _customer_prior(self, i):
        for j, _, lw in self.cand_c[i]:
            if j == self.cl[i]:
                return lw - self.log_norm_c[i]

    def _component_move(self, lab, i, cands, target_of):
        cache = {}
        home = lab[i]
        stats_i = self._stats_of_label(lab, home, cache)
        delta_by_comp = {home: 0.0}
        log_weights = []
        for j, _, lw in cands:
            comp = lab[target_of(j)]
            d = delta_by_comp.get(comp)
            if d is None:
                d = self._merge_delta(stats_i, self._stats_of_label(lab, comp, cache))
                delta_by_comp[comp] = d
            log_weights.append(lw + d)
        return log_weights


class RebuildHddcrpState(_RebuildBase):
    def __init__(self, corpus, config, priors, params):
        super().__init__(corpus, config, priors, params)
        self.cand_t = tuple(
            tuple((j, w, math.log(w)) for j, w in cands) for cands in priors.table
        )
        self.log_norm_t = tuple(math.log(sum(w for _, w in c)) for c in priors.table)
        self.tl = list(range(self.n))

    def init_links(self, rng):
        for i in range(self.n):
            self.cl[i] = self.cand_c[i][int(rng.integers(len(self.cand_c[i])))][0]
            self.tl[i] = self.cand_t[i][int(rng.integers(len(self.cand_t[i])))][0]

    def _edges(self, skip=None):
        for m in range(self.n):
            if m == skip:
                continue
            if self.cl[m] != m:
                yield m, self.cl[m]
            elif self.tl[m] != m:
                yield m, self.tl[m]

    def _move(self, i, cands, is_customer, rng):
        lab, _ = _rebuild_component_labels(self.n, self._edges(skip=i))
        log_weights = self._component_move(
            lab, i, cands, lambda j: self.tl[i] if (is_customer and j == i) else j
        )
        choice = _rebuild_draw(rng, log_weights)
        if is_customer:
            self.cl[i] = cands[choice][0]
        else:
            self.tl[i] = cands[choice][0]

    def sweep(self, rng):
        for i in self._scan_order(rng):
            self._move(i, self.cand_c[i], True, rng)
        for i in self._scan_order(rng):
            cands = self.cand_t[i]
            if self.cl[i] != i:
                choice = _rebuild_draw(rng, [lw for _, _, lw in cands])
                self.tl[i] = cands[choice][0]
            else:
                self._move(i, cands, False, rng)

    def joint_log_score(self):
        score = 0.0
        for i in range(self.n):
            score += self._customer_prior(i)
            for j, _, lw in self.cand_t[i]:
                if j == self.tl[i]:
                    score += lw - self.log_norm_t[i]
                    break
        lab, count = _rebuild_component_labels(self.n, self._edges())
        return score + self._partition_loglik(lab, count)


class RebuildFlatDdcrpState(_RebuildBase):
    def init_links(self, rng):
        for i in range(self.n):
            self.cl[i] = self.cand_c[i][int(rng.integers(len(self.cand_c[i])))][0]

    def sweep(self, rng):
        for i in self._scan_order(rng):
            lab, _ = _rebuild_component_labels(
                self.n, ((m, self.cl[m]) for m in range(self.n) if m != i)
            )
            cands = self.cand_c[i]
            log_weights = self._component_move(lab, i, cands, lambda j: j)
            self.cl[i] = cands[_rebuild_draw(rng, log_weights)][0]

    def joint_log_score(self):
        score = 0.0
        for i in range(self.n):
            score += self._customer_prior(i)
        lab, count = _rebuild_component_labels(
            self.n, ((m, self.cl[m]) for m in range(self.n))
        )
        return score + self._partition_loglik(lab, count)


class RebuildTableCrpState(_RebuildBase):
    def __init__(self, corpus, config, priors, params):
        super().__init__(corpus, config, priors, params)
        self.alpha_0 = config.resolved_alpha_0
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
        root = [0] * self.n
        for m in range(self.n):
            root[m] = m if self.cl[m] == m else root[self.cl[m]]
        return root

    def _group_stats(self, members):
        counts = {}
        total = 0
        for m in members:
            for tok, c in self.span_counts[m].items():
                counts[tok] = counts.get(tok, 0) + c
            total += self.span_totals[m]
        return counts, total

    def _label_aggregates(self, root, skip_head):
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

    def _delta_for(self, stats_i, stats, label_delta):
        def delta_for(k):
            d = label_delta.get(k)
            if d is None:
                d = label_delta[k] = self._merge_delta(stats_i, stats[k])
            return d

        return delta_for

    def _draw_label(self, rng, tables, delta_for):
        keys = sorted(tables)
        log_weights = [math.log(tables[k]) + delta_for(k) for k in keys]
        log_weights.append(math.log(self.alpha_0))
        choice = _rebuild_draw(rng, log_weights)
        if choice == len(keys):
            self.next_label += 1
            return self.next_label - 1
        return keys[choice]

    def _customer_move(self, i, rng):
        self.cl[i] = i
        self.labels.pop(i, None)
        root = self._roots()
        stats_i = self._group_stats([m for m in range(self.n) if root[m] == i])
        stats, tables = self._label_aggregates(root, skip_head=i)
        denom = sum(tables.values()) + self.alpha_0
        delta_for = self._delta_for(stats_i, stats, {})
        cands = self.cand_c[i]
        log_weights = []
        for j, _, lw in cands:
            if j == i:
                terms = [math.log(self.alpha_0) - math.log(denom)]
                for k, cnt in tables.items():
                    terms.append(math.log(cnt) - math.log(denom) + delta_for(k))
                top = max(terms)
                marg = top + math.log(sum(math.exp(t - top) for t in terms))
                log_weights.append(lw + marg)
            else:
                log_weights.append(lw + delta_for(self.labels[root[j]]))
        target = cands[_rebuild_draw(rng, log_weights)][0]
        self.cl[i] = target
        if target == i:
            self.labels[i] = self._draw_label(rng, tables, delta_for)

    def _label_move(self, head, rng):
        root = self._roots()
        stats_t = self._group_stats([m for m in range(self.n) if root[m] == head])
        self.labels.pop(head)
        stats, tables = self._label_aggregates(root, skip_head=head)
        delta_for = self._delta_for(stats_t, stats, {})
        self.labels[head] = self._draw_label(rng, tables, delta_for)

    def sweep(self, rng):
        for i in self._scan_order(rng):
            self._customer_move(i, rng)
        for head in sorted(self.labels):
            self._label_move(head, rng)

    def joint_log_score(self):
        score = 0.0
        for i in range(self.n):
            score += self._customer_prior(i)
        sizes = {}
        for k in self.labels.values():
            sizes[k] = sizes.get(k, 0) + 1
        score += _rebuild_crp_log_prob(sorted(sizes.values()), self.alpha_0)
        root = self._roots()
        remap = {}
        lab = [0] * self.n
        for m in range(self.n):
            k = self.labels[root[m]]
            if k not in remap:
                remap[k] = len(remap)
            lab[m] = remap[k]
        return score + self._partition_loglik(lab, len(remap))


def label_log_weights_reference(labels, shared, weights):
    """The sorted labels of a sampling.Labels and the log weights its label
    draw gives them, built one label at a time from the table counts and
    label bags: n_k times the merge ratio for a label sharing a lemma with
    the moving table, else its (tables, lemma total) key's weight; alpha_0
    last, for a new label."""
    tables = {k: labels.key_table[kid][0] for k, kid in labels.key_of.items()}
    bags, logs, key_ids = labels.bags, labels._logs, labels.key_ids
    order = sorted(tables)
    log_weights = [
        logs[tables[k]] + shared[k] if k in shared else weights[key_ids[tables[k], bags[k][1]]]
        for k in order
    ]
    log_weights.append(labels.log_alpha_0)
    return order, log_weights


def label_draw_reference(labels, rng, shared, weights):
    """The label a per-label draw picks: _draw over the log weights of
    label_log_weights_reference, one exponential per label in sorted order,
    and the next fresh label for the index past the last label."""
    order, log_weights = label_log_weights_reference(labels, shared, weights)
    choice = _draw(rng, log_weights)
    return order[choice] if choice < len(order) else labels.next_label


REBUILD_STATES = {
    "hddcrp": RebuildHddcrpState,
    "hddcrp_star": RebuildTableCrpState,
    "hdp_lex": RebuildTableCrpState,
    "ddcrp_flat": RebuildFlatDdcrpState,
}

"""Correctness checks that do not trust the program under test.

MUC and B-cubed are recomputed here from the written clustering files and
the generated gold; the other checks test properties the method must have.
Every check returns a list of failure messages (empty when it passes).
"""

from __future__ import annotations

import json
import math
import random


def _f1(p, r):
    return 2 * p * r / (p + r) if p + r else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def muc_counts(gold, pred):
    """(recall num, recall den, precision num, precision den) of MUC."""

    def side(keys, responses):
        part_of = {m: k for k, part in enumerate(responses) for m in part}
        num = sum(len(key) - len({part_of[m] for m in key}) for key in keys)
        den = sum(len(key) - 1 for key in keys)
        return num, den

    return (*side(gold, pred), *side(pred, gold))


def b_cubed_counts(gold, pred):
    """(recall num, mentions, precision num, mentions) of B-cubed."""
    gold_of = {m: part for part in gold for m in part}
    pred_of = {m: part for part in pred for m in part}
    r = sum(len(gold_of[m] & pred_of[m]) / len(gold_of[m]) for m in gold_of)
    p = sum(len(gold_of[m] & pred_of[m]) / len(pred_of[m]) for m in gold_of)
    return r, len(gold_of), p, len(gold_of)


def prf(counts):
    """(precision, recall, F1) from micro-aggregated counts."""
    r_num, r_den, p_num, p_den = counts
    p, r = _ratio(p_num, p_den), _ratio(r_num, r_den)
    return p, r, _f1(p, r)


def micro(metric, gold, pred, unit_of):
    """Metric counts summed over evaluation units (documents or topics)."""
    units = sorted(set(unit_of.values()))
    totals = [0.0, 0.0, 0.0, 0.0]
    for unit in units:
        keep = {m for m, u in unit_of.items() if u == unit}
        g = [part & keep for part in gold if part & keep]
        p = [part & keep for part in pred if part & keep]
        for k, v in enumerate(metric(g, p)):
            totals[k] += v
    return prf(totals)


def read_partition(path):
    with open(path, encoding="utf-8") as fh:
        mapping = json.load(fh)["assignment"]
    parts = {}
    for mid, label in mapping.items():
        parts.setdefault(label, set()).add(mid)
    return [frozenset(p) for p in parts.values()], set(mapping)


def check_score_report(report_path, clustering_paths, inputs):
    """Coverage, recomputed MUC / B-cubed (chain-averaged) and CoNLL = mean F1."""
    errors = []
    preds = []
    for path in clustering_paths:
        parts, ids = read_partition(path)
        if ids != set(inputs.mention_ids):
            errors.append(f"{path}: covers {len(ids)} ids, expected the "
                          f"{len(inputs.mention_ids)} generated mentions")
        preds.append(parts)
    with open(report_path, encoding="utf-8") as fh:
        reports = json.load(fh)["reports"]
    for setting, unit_of in (("WD", inputs.doc_of), ("CD", inputs.topic_of)):
        got = reports[setting]
        for name, metric in (("muc", muc_counts), ("b3", b_cubed_counts)):
            ours = [micro(metric, inputs.gold, p, unit_of) for p in preds]
            for k, field in enumerate(("precision", "recall", "f1")):
                want = sum(o[k] for o in ours) / len(ours)
                if abs(got[name][field] - want) > 1e-9:
                    errors.append(f"{report_path}: {setting} {name} {field} "
                                  f"{got[name][field]!r} != recomputed {want!r}")
        mean_f1 = (got["muc"]["f1"] + got["b3"]["f1"] + got["ceaf_e"]["f1"]) / 3
        if abs(got["conll_f1"] - mean_f1) > 1e-12:
            errors.append(f"{report_path}: {setting} CoNLL is not the mean of the three F1")
    return errors


def check_trace(path, iterations):
    """One finite joint-score row per iteration, numbered from 1."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if not line.startswith("#")]
    if rows[0] != "iteration,joint_log_score":
        return [f"{path}: unexpected header {rows[0]!r}"]
    body = [r.split(",") for r in rows[1:] if r]
    if [int(r[0]) for r in body] != list(range(1, iterations + 1)):
        return [f"{path}: {len(body)} rows, expected iterations 1..{iterations}"]
    if not all(math.isfinite(float(r[1])) for r in body):
        return [f"{path}: non-finite joint log score"]
    return []


def check_thresholded_pairs(clustering_path, model, corpus, resources, inputs, seed,
                            threshold=0.5, sample=400):
    """Single-link closure: sampled pairs at or above the thresholds share a
    cluster.  Pairs are drawn within topics, where most links lie."""
    parts, _ = read_partition(clustering_path)
    cluster_of = {m: k for k, part in enumerate(parts) for m in part}
    rng = random.Random(seed)
    ids = inputs.mention_ids
    above = 0
    errors = []
    for _ in range(sample):
        a = rng.choice(ids)
        b = rng.choice([m for m in ids if inputs.topic_of[m] == inputs.topic_of[a] and m != a])
        sim = model.pair_similarity(corpus.mention(a), corpus.mention(b), resources)
        if sim >= threshold:
            above += 1
            if cluster_of[a] != cluster_of[b]:
                errors.append(f"{a} and {b} have similarity {sim:.4f} >= {threshold} "
                              "but lie in different agglomerative clusters")
    if above == 0:
        errors.append("no sampled pair reached the agglomerative thresholds")
    return errors


def check_priors(captured, inputs, seed, sample=300):
    """Sampled prior weights equal the per-pair distances to 1e-12, under the
    candidate-ordering and document rules of Priors."""
    corpus, config, pairwise, resources, priors = captured
    order = [corpus.mention(mid) for mid in inputs.mention_ids]
    docs = {d.doc_id: d for d in corpus.documents}
    if [m.mention_id for m in corpus.mentions_in_order()] != list(inputs.mention_ids):
        return ["canonical mention order differs from (doc id, order index)"]
    model = config.model
    alpha_0 = config.resolved_alpha_0
    self_weight = alpha_0 if model == "ddcrp_flat" else config.alpha_d

    def within(i, j):
        a, b = order[i], order[j]
        if model == "ddcrp_flat":
            return j != i, (lambda: pairwise.truncated_similarity(a, b, resources))
        ok = j < i and a.doc_id == b.doc_id
        if model == "hdp_lex":
            return ok, (lambda: 1.0)
        return ok, (lambda: pairwise.within_doc_distance(a, b, resources))

    def cross(i, j):
        a, b = order[i], order[j]
        return a.doc_id != b.doc_id, (lambda: pairwise.cross_doc_distance(
            a, b, docs[a.doc_id], docs[b.doc_id], resources))

    layers = [("customer", priors.customer, self_weight, within)]
    if model == "hddcrp":
        layers.append(("table", priors.table, alpha_0, cross))
    elif priors.table is not None:
        return [f"{model} priors carry a table layer"]
    errors = []
    rng = random.Random(seed)
    n = len(order)
    for layer, cands, first_weight, rule in layers:
        for i in range(n):
            targets = [j for j, _ in cands[i][1:]]
            if cands[i][0] != (i, first_weight):
                errors.append(f"{layer}[{i}] does not start with its self candidate")
            if targets != sorted(set(targets)) or not all(rule(i, j)[0] for j in targets):
                errors.append(f"{layer}[{i}] breaks the candidate order or document rule")
        for _ in range(sample):
            i = rng.randrange(n)
            present = dict(cands[i][1:])
            # half the draws from kept candidates, half from all mentions
            j = rng.choice(list(present)) if present and rng.random() < 0.5 else rng.randrange(n)
            allowed, weight = rule(i, j)
            if not allowed:
                if j in present:
                    errors.append(f"{layer}[{i}] holds forbidden target {j}")
                continue
            want = weight()
            got = present.get(j, 0.0)
            if abs(got - want) > 1e-12 or (want > 0) != (j in present):
                errors.append(f"{layer}[{i}] target {j}: weight {got!r}, distance {want!r}")
    return errors

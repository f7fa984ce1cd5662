"""Coreference metrics: MUC, B3, CEAF_e, and their CoNLL average.

All three metrics compare a predicted ClusterAssignment against a gold one
over the same mention universe.  Evaluation has two settings:
within-document (WD) restricts both partitions to one source document at a
time, cross-document (CD) restricts them to units that pool every document
describing the same seminal event.  Either way the per-unit counts are
micro-aggregated: numerators and denominators are summed over units before
any division, which matches the reference scorer behavior for multi-document
inputs.

CEAF_e aligns clusters by Crouse 2016's shortest augmenting path method ("On
implementing 2D rectangular assignment algorithms", IEEE TAES 52(4)), ported
from scipy's linear_sum_assignment so that ties break as scipy's do.

Vacuous ratios (0/0) score 0 by convention, and an F1 with zero precision and
recall is 0 rather than NaN.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import InputError, UniverseMismatchError


def _ratio(num, den):
    # 0/0 counts as 0, never NaN
    return num / den if den else 0.0


def _f1(p, r):
    return 2 * p * r / (p + r) if p + r else 0.0


def _cluster_ids(gold, pred):
    """The mention id -> cluster label maps of two ClusterAssignments over one
    set of mentions."""
    gold_of, pred_of = gold.as_mapping(), pred.as_mapping()
    if gold_of.keys() != pred_of.keys():
        missing = sorted(gold_of.keys() ^ pred_of.keys())
        raise UniverseMismatchError(
            f"gold and predicted clusterings cover different mentions, e.g. {missing[:5]}"
        )
    return gold_of, pred_of


# ---------------------------------------------------------------------------
# Per-unit counts.  A unit is the list of (gold cluster id, predicted cluster
# id) pairs of its mentions; _overlaps counts its cluster pairs and sizes
# once for all three metrics.  Each helper returns numerator/denominator
# pairs for recall and precision so settings can micro-aggregate before
# dividing.
# ---------------------------------------------------------------------------


def _overlaps(pairs):
    """|G & S| of each gold and predicted cluster that share a mention, and
    the size of each cluster."""
    cells = Counter(pairs)
    gold_size, pred_size = {}, {}
    for (g, s), c in cells.items():
        gold_size[g] = gold_size.get(g, 0) + c
        pred_size[s] = pred_size.get(s, 0) + c
    return cells, gold_size, pred_size


def _muc_counts(pairs, cells, gold_size, pred_size):
    """Link-based counts: a chain of k mentions has k - 1 links, and the other
    side keeps k minus the number of its clusters the chain touches.  Summed
    over the chains these are n - |chains| and n - |cells|, so size-1 chains
    contribute 0 to numerator and denominator."""
    n = len(pairs)
    return n - len(cells), n - len(gold_size), n - len(cells), n - len(pred_size)


def _b_cubed_counts(pairs, cells, gold_size, pred_size):
    """Per-mention overlap proportions; numerators are summed mention scores,
    denominators are mention counts."""
    # fsum rounds once, so the sums do not depend on the order of the mentions
    r_num = math.fsum(cells[k] / gold_size[k[0]] for k in pairs)
    p_num = math.fsum(cells[k] / pred_size[k[1]] for k in pairs)
    return r_num, len(pairs), p_num, len(pairs)


def _max_assignment(phi):
    """scipy's linear_sum_assignment(phi, maximize=True) on a non-empty list
    of equal-length rows: its rectangular_lsap.cpp, ported line for line."""
    nr, nc = len(phi), len(phi[0])
    transpose = nc < nr
    if transpose:
        nr, nc, phi = nc, nr, list(zip(*phi))
    cost = [[-x for x in row] for row in phi]
    u, v = [0.0] * nr, [0.0] * nc
    path, col4row, row4col = [-1] * nc, [-1] * nr, [-1] * nc
    for cur in range(nr):
        # the shortest augmenting path from cur
        min_val, sink, i = 0.0, -1, cur
        remaining = list(range(nc - 1, -1, -1))  # a constant matrix gives the identity
        dist, sr, sc = [math.inf] * nc, [], []  # the path's rows and columns
        while sink == -1:
            index, lowest = -1, math.inf
            sr.append(i)
            row, ui = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - ui - v[j]
                d = dist[j]
                if r < d:
                    path[j] = i
                    dist[j] = d = r
                # of equally short paths, one ending at a free column wins
                if d < lowest or (d == lowest and row4col[j] == -1):
                    lowest, index = d, it
            min_val, j = lowest, remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            sc.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in sr[1:]:
            u[i] += min_val - dist[col4row[i]]
        for j in sc:
            v[j] -= min_val - dist[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[k] for k in order], order
    return list(range(nr)), col4row


def _ceaf_e_counts(pairs, cells, gold_size, pred_size):
    """Optimal one-to-one cluster alignment under phi4 = 2|G&S|/(|G|+|S|).
    Numerators are the total phi4 mass of the best alignment; denominators
    are the cluster counts."""
    if not pairs:
        return 0.0, 0, 0.0, 0
    row = {g: i for i, g in enumerate(sorted(gold_size))}
    col = {s: j for j, s in enumerate(sorted(pred_size))}
    phi = [[0.0] * len(col) for _ in row]
    for (g, s), c in cells.items():
        phi[row[g]][col[s]] = 2.0 * c / (gold_size[g] + pred_size[s])
    rows, cols = _max_assignment(phi)
    # numpy's pairwise sum in row order; another order may change the last bit
    mass = float(np.array([phi[i][j] for i, j in zip(rows, cols)]).sum())
    return mass, len(row), mass, len(col)


def _prf(counts):
    r_num, r_den, p_num, p_den = counts
    p, r = _ratio(p_num, p_den), _ratio(r_num, r_den)
    return PRF(p, r, _f1(p, r))


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float


def _metric(counts, gold, pred):
    gold_of, pred_of = _cluster_ids(gold, pred)
    pairs = [(g, pred_of[m]) for m, g in gold_of.items()]
    return _prf(counts(pairs, *_overlaps(pairs)))


def muc(gold, pred):
    return _metric(_muc_counts, gold, pred)


def b_cubed(gold, pred):
    return _metric(_b_cubed_counts, gold, pred)


def ceaf_e(gold, pred):
    return _metric(_ceaf_e_counts, gold, pred)


@dataclass(frozen=True)
class ScoreReport:
    setting: str
    muc: PRF
    b3: PRF
    ceafe: PRF

    @property
    def conll_f1(self):
        return (self.muc.f1 + self.b3.f1 + self.ceafe.f1) / 3.0

    def to_dict(self):
        out = {"setting": self.setting, "conll_f1": self.conll_f1}
        for name, prf in (("muc", self.muc), ("b3", self.b3), ("ceaf_e", self.ceafe)):
            out[name] = {
                "precision": prf.precision,
                "recall": prf.recall,
                "f1": prf.f1,
            }
        return out


def score(corpus, gold, pred, setting="WD"):
    """Micro-aggregated ScoreReport over documents (WD) or seminal events
    (CD), taken in order of their ids."""
    if setting not in ("WD", "CD"):
        raise ValueError(f"unknown setting {setting!r}")
    gold_of, pred_of = _cluster_ids(gold, pred)
    units = {}
    for d in corpus.documents:
        if setting == "CD" and not d.seminal_event_id:
            raise InputError(f"document {d.doc_id!r} lacks a seminal_event_id")
        key = d.doc_id if setting == "WD" else d.seminal_event_id
        # a mention outside the clusterings is not scored
        units.setdefault(key, []).extend(
            (gold_of[m.mention_id], pred_of[m.mention_id])
            for m in d.mentions
            if m.mention_id in gold_of
        )
    counts = {"muc": _muc_counts, "b3": _b_cubed_counts, "ceafe": _ceaf_e_counts}
    totals = {name: [0.0] * 4 for name in counts}
    for key in sorted(units):
        pairs = units[key]
        overlaps = _overlaps(pairs)
        for name, fn in counts.items():
            for k, v in enumerate(fn(pairs, *overlaps)):
                totals[name][k] += v
    return ScoreReport(
        setting, _prf(totals["muc"]), _prf(totals["b3"]), _prf(totals["ceafe"])
    )


def mean_reports(reports):
    """Fieldwise arithmetic mean of reports from one setting."""
    if not reports:
        raise ValueError("no reports to average")
    settings = {r.setting for r in reports}
    if len(settings) != 1:
        raise ValueError("cannot average reports across settings")

    def avg(get):
        vals = [get(r) for r in reports]
        # left to right: sum() of floats is compensated from Python 3.12 on
        return reduce(add, vals, 0.0) / len(vals)

    def mean_prf(name):
        return PRF(
            avg(lambda r: getattr(r, name).precision),
            avg(lambda r: getattr(r, name).recall),
            avg(lambda r: getattr(r, name).f1),
        )

    return ScoreReport(settings.pop(), mean_prf("muc"), mean_prf("b3"), mean_prf("ceafe"))


def format_table(reports):
    """Plain-text table, one row per report."""
    header = f"{'setting':<8}{'MUC P':>8}{'MUC R':>8}{'MUC F1':>8}"
    header += f"{'B3 P':>8}{'B3 R':>8}{'B3 F1':>8}"
    header += f"{'CEAFe P':>9}{'CEAFe R':>9}{'CEAFe F1':>9}{'CoNLL':>8}"
    lines = [header]
    for r in reports:
        row = f"{r.setting:<8}"
        for prf, width in ((r.muc, 8), (r.b3, 8), (r.ceafe, 9)):
            row += f"{prf.precision * 100:>{width}.2f}{prf.recall * 100:>{width}.2f}{prf.f1 * 100:>{width}.2f}"
        row += f"{r.conll_f1 * 100:>8.2f}"
        lines.append(row)
    return "\n".join(lines)

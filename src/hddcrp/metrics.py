"""Coreference metrics: MUC, B3, CEAF_e, and their CoNLL average.

All three metrics compare a predicted partition against a gold partition over
the same mention universe.  Evaluation has two settings: within-document (WD)
restricts both partitions to one source document at a time, cross-document
(CD) restricts them to units that pool every document describing the same
seminal event.  Either way the per-unit counts are micro-aggregated:
numerators and denominators are summed over units before any division, which
matches the reference scorer behavior for multi-document inputs.

Vacuous ratios (0/0) score 0 by convention, and an F1 with zero precision and
recall is 0 rather than NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .errors import InputError, UniverseMismatchError
from .links import ClusterAssignment


def _ratio(num, den):
    # 0/0 counts as 0, never NaN
    return num / den if den else 0.0


def _f1(p, r):
    return 2 * p * r / (p + r) if p + r else 0.0


def _as_partition(clustering):
    if isinstance(clustering, ClusterAssignment):
        return clustering.partition()
    return [frozenset(part) for part in clustering]


def _check_universe(gold, pred):
    ug = set().union(*gold) if gold else set()
    up = set().union(*pred) if pred else set()
    if ug != up:
        missing = sorted(ug ^ up)
        raise UniverseMismatchError(
            f"gold and predicted clusterings cover different mentions, e.g. {missing[:5]}"
        )


# ---------------------------------------------------------------------------
# Per-unit counts.  Each helper returns numerator/denominator pairs for
# recall and precision so settings can micro-aggregate before dividing.
# ---------------------------------------------------------------------------


def _muc_counts(gold, pred):
    """Link-based counts: recall loses one link per extra pred part cutting a
    gold chain.  Size-1 chains contribute 0 to numerator and denominator."""

    def side(chains, against):
        num = den = 0
        cluster_of = {}
        for k, part in enumerate(against):
            for m in part:
                cluster_of[m] = k
        for chain in chains:
            parts = len({cluster_of[m] for m in chain})
            num += len(chain) - parts
            den += len(chain) - 1
        return num, den

    r_num, r_den = side(gold, pred)
    p_num, p_den = side(pred, gold)
    return r_num, r_den, p_num, p_den


def _b_cubed_counts(gold, pred):
    """Per-mention overlap proportions; numerators are summed mention scores,
    denominators are mention counts."""
    gold_of, pred_of = {}, {}
    for part in gold:
        for m in part:
            gold_of[m] = part
    for part in pred:
        for m in part:
            pred_of[m] = part
    # fsum rounds once, so the sums do not depend on the hash order of the sets
    overlap = {m: len(gold_of[m] & pred_of[m]) for m in gold_of}
    r_num = math.fsum(overlap[m] / len(gold_of[m]) for m in gold_of)
    p_num = math.fsum(overlap[m] / len(pred_of[m]) for m in gold_of)
    n = len(gold_of)
    return r_num, n, p_num, n


def _ceaf_e_counts(gold, pred):
    """Optimal one-to-one cluster alignment under phi4 = 2|G&S|/(|G|+|S|).
    Numerators are the total phi4 mass of the best alignment; denominators
    are the cluster counts."""
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


def _prf(counts):
    r_num, r_den, p_num, p_den = counts
    p, r = _ratio(p_num, p_den), _ratio(r_num, r_den)
    return PRF(p, r, _f1(p, r))


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float


def muc(gold, pred):
    gold, pred = _as_partition(gold), _as_partition(pred)
    _check_universe(gold, pred)
    return _prf(_muc_counts(gold, pred))


def b_cubed(gold, pred):
    gold, pred = _as_partition(gold), _as_partition(pred)
    _check_universe(gold, pred)
    return _prf(_b_cubed_counts(gold, pred))


def ceaf_e(gold, pred):
    gold, pred = _as_partition(gold), _as_partition(pred)
    _check_universe(gold, pred)
    return _prf(_ceaf_e_counts(gold, pred))


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


def _restrict(partition, universe):
    return [part & universe for part in partition if part & universe]


def score(corpus, gold, pred, setting="WD"):
    """Micro-aggregated ScoreReport over documents (WD) or seminal events
    (CD), taken in order of their ids."""
    if setting not in ("WD", "CD"):
        raise ValueError(f"unknown setting {setting!r}")
    gold, pred = _as_partition(gold), _as_partition(pred)
    _check_universe(gold, pred)
    units = {}
    for d in corpus.documents:
        if setting == "CD" and not d.seminal_event_id:
            raise InputError(f"document {d.doc_id!r} lacks a seminal_event_id")
        key = d.doc_id if setting == "WD" else d.seminal_event_id
        units.setdefault(key, set()).update(m.mention_id for m in d.mentions)
    totals = {
        "muc": [0.0, 0.0, 0.0, 0.0],
        "b3": [0.0, 0.0, 0.0, 0.0],
        "ceafe": [0.0, 0.0, 0.0, 0.0],
    }
    counts = {"muc": _muc_counts, "b3": _b_cubed_counts, "ceafe": _ceaf_e_counts}
    for key in sorted(units):
        g, p = _restrict(gold, units[key]), _restrict(pred, units[key])
        for name, fn in counts.items():
            for k, v in enumerate(fn(g, p)):
                totals[name][k] += v
    return ScoreReport(
        setting, _prf(totals["muc"]), _prf(totals["b3"]), _prf(totals["ceafe"])
    )


def mean_reports(reports):
    """Fieldwise arithmetic mean of reports from one setting."""
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

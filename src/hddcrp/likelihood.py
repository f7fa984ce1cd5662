"""Collapsed Dirichlet-multinomial likelihood over mention span lemmas.

Each coreference cluster emits the bag of span lemmas of its member mentions
from a cluster-specific multinomial with a symmetric Dirichlet prior.  The
multinomial is integrated out, leaving a closed form in log-gamma terms.  The
sampler only ever needs ratios between a merged cluster and its two halves,
for which all terms over lemmas absent from both halves cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lgamma


@dataclass(frozen=True)
class LikelihoodParams:
    """Dirichlet hyperparameters: symmetric concentration and vocabulary size."""

    concentration: float = 1e-7
    vocab_size: int = 1

    def __post_init__(self):
        if self.concentration <= 0:
            raise ValueError("concentration must be positive")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be at least 1")

    @staticmethod
    def for_corpus(corpus, concentration=1e-7):
        return LikelihoodParams(concentration, max(1, len(corpus.span_vocabulary())))


class ClusterStats:
    """Mutable bag of lemma counts for one cluster."""

    __slots__ = ("counts", "total")

    def __init__(self, counts=None):
        self.counts = dict(counts) if counts else {}
        self.total = sum(self.counts.values())

    def add(self, lemmas):
        for tok in lemmas:
            self.counts[tok] = self.counts.get(tok, 0) + 1
        self.total += len(lemmas)

    def __eq__(self, other):
        return isinstance(other, ClusterStats) and self.counts == other.counts

    def __repr__(self):
        return f"ClusterStats({self.counts!r})"

    @staticmethod
    def of_mentions(mentions):
        stats = ClusterStats()
        for m in mentions:
            stats.add(m.span_lemmas)
        return stats


def log_marginal(stats: ClusterStats, params: LikelihoodParams) -> float:
    """Log marginal likelihood of one cluster's lemma counts.

    log [ G(V*c) / G(V*c + N) * prod_w G(c + n_w) / G(c) ] with G the gamma
    function, c the concentration, V the vocabulary size, N the total count.
    Lemmas with n_w = 0 contribute nothing.
    """
    return log_marginal_raw(
        stats.counts, stats.total, params.concentration, params.vocab_size
    )


def log_marginal_raw(counts, total, c, v):
    """log_marginal on a raw count dict; the sampler hot path."""
    out = lgamma(v * c) - lgamma(v * c + total)
    lg_c = lgamma(c)
    for n in counts.values():
        out += lgamma(c + n) - lg_c
    return out


def corpus_log_likelihood(assignment, corpus, params: LikelihoodParams) -> float:
    """Sum of per-cluster log marginals under a clustering of the corpus."""
    total = 0.0
    for part in assignment.partition():
        stats = ClusterStats.of_mentions(corpus.mention(mid) for mid in part)
        total += log_marginal(stats, params)
    return total


def log_ratio_for_merge(a: ClusterStats, b: ClusterStats, params: LikelihoodParams) -> float:
    """log p(merged) - log p(a) - log p(b) for two mention-disjoint clusters.

    Computed without building the merged bag: only lemmas present in both
    halves contribute to the product term, the normalizer term always does.
    """
    return merge_ratio_raw(
        a.counts, a.total, b.counts, b.total, params.concentration, params.vocab_size
    )


def merge_normaliser_raw(total_a, total_b, c, v):
    """The normaliser term of merge_ratio_raw, which depends only on the two
    lemma totals; for bags that share no lemma it is the whole ratio."""
    return (
        lgamma(v * c + total_a)
        + lgamma(v * c + total_b)
        - lgamma(v * c)
        - lgamma(v * c + total_a + total_b)
    )


def merge_ratio_raw(counts_a, total_a, counts_b, total_b, c, v):
    """log_ratio_for_merge on raw count dicts; the sampler hot path."""
    out = merge_normaliser_raw(total_a, total_b, c, v)
    if len(counts_b) < len(counts_a):
        counts_a, counts_b = counts_b, counts_a
    lg_c = lgamma(c)
    for tok, ns in counts_a.items():
        nl = counts_b.get(tok)
        if nl is not None:
            out += lgamma(c + ns + nl) - lgamma(c + ns) - lgamma(c + nl) + lg_c
    return out

"""Collapsed Dirichlet-multinomial likelihood over mention span lemmas.

Each coreference cluster emits the bag of span lemmas of its member mentions
from a cluster-specific multinomial with a symmetric Dirichlet prior.  The
multinomial is integrated out, leaving a closed form in log-gamma terms.  The
sampler only ever needs ratios between a merged cluster and its two halves,
for which all terms over lemmas absent from both halves cancel; a split is
scored as the merge of one side with the rest, read off the whole bag.

The functions read their log-gamma terms from tables on the LikelihoodParams
and add them with math.fsum, which rounds the exact sum once, so results do
not depend on the order of a bag's lemmas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import fsum, isfinite, lgamma

from .errors import InputError


@dataclass(frozen=True)
class LikelihoodParams:
    """Dirichlet hyperparameters: symmetric concentration and vocabulary size."""

    concentration: float = 1e-7
    vocab_size: int = 1
    # lgamma(c + n) - lgamma(c) and lgamma(V*c + n) for n = 0, 1, ..., grown on demand
    _count_terms: list = field(default_factory=list, init=False, repr=False, compare=False)
    _total_terms: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.concentration <= 0:
            raise ValueError("concentration must be positive")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be at least 1")
        try:  # every table entry is finite if lgamma(V*c) is
            finite = isfinite(lgamma(self.vocab_size * self.concentration))
        except OverflowError:
            finite = False
        if not finite:
            raise InputError(f"concentration {self.concentration} overflows the likelihood")

    @staticmethod
    def for_corpus(corpus, concentration=1e-7):
        return LikelihoodParams(concentration, max(1, len(corpus.span_vocabulary())))

    def _grow(self, n):
        """Extend both tables to cover every count and total up to n."""
        c, vc = self.concentration, self.vocab_size * self.concentration
        for k in range(len(self._count_terms), n + 1):
            self._count_terms.append(lgamma(c + k) - lgamma(c))
            self._total_terms.append(lgamma(vc + k))


def lemma_bags(lemma_lists):
    """Lemma counts of each list, each list's total, and a function from a
    collection of list indices to their summed counts and total.

    The function holds no state object, so the caches that keep it make no
    reference cycle.
    """
    counts = []
    for lemmas in lemma_lists:
        bag = {}
        for tok in lemmas:
            bag[tok] = bag.get(tok, 0) + 1
        counts.append(bag)
    totals = [sum(bag.values()) for bag in counts]

    def bag_of(members):
        merged = {}
        total = 0
        for m in members:
            for tok, c in counts[m].items():
                merged[tok] = merged.get(tok, 0) + c
            total += totals[m]
        return merged, total

    return counts, totals, bag_of


def log_marginal_raw(counts, total, params):
    """Log marginal likelihood of one cluster's lemma counts.

    log [ G(V*c) / G(V*c + N) * prod_w G(c + n_w) / G(c) ] with G the gamma
    function, c the concentration, V the vocabulary size, N the total count.
    Lemmas with n_w = 0 contribute nothing.
    """
    if total >= len(params._total_terms):
        params._grow(total)
    g, lg = params._total_terms, params._count_terms
    return fsum([g[0], -g[total], *[lg[n] for n in counts.values()]])


def corpus_log_likelihood(assignment, corpus, params: LikelihoodParams) -> float:
    """Sum of per-cluster log marginals under a clustering of the corpus."""
    _, _, bag_of = lemma_bags(
        corpus.mention(mid).span_lemmas for mid in assignment.mention_ids
    )
    parts = {}
    for m, k in enumerate(assignment.labels):
        parts.setdefault(k, []).append(m)
    return partition_loglik(parts.values(), bag_of, params)


def partition_loglik(parts, bag_of, params):
    """Sum of the log marginals of the clusters parts, bag_of giving each
    one's (counts, total) bag, added left to right."""
    total = 0.0
    for part in parts:
        total += log_marginal_raw(*bag_of(part), params)
    return total


def merge_normaliser_raw(total_a, total_b, params):
    """The normaliser term of merge_ratio_raw, which depends only on the two
    lemma totals; for bags that share no lemma it is the whole ratio."""
    g = params._total_terms
    total = total_a + total_b
    if total >= len(g):
        params._grow(total)
    return fsum((g[total_a], g[total_b], -g[0], -g[total]))


def merge_ratio_raw(counts_a, total_a, counts_b, total_b, params):
    """log p(merged) - log p(a) - log p(b) for two mention-disjoint clusters.

    Computed without building the merged bag: only lemmas present in both
    halves contribute to the product term, the normalizer term always does.
    """
    normaliser = merge_normaliser_raw(total_a, total_b, params)
    return merge_ratio_from(normaliser, counts_a, counts_b, params)


def merge_ratio_from(normaliser, counts_a, counts_b, params):
    """merge_ratio_raw of two clusters' lemma counts given their merge
    normaliser, for a caller that holds it already: the same terms and sum."""
    terms = [normaliser]
    if len(counts_b) < len(counts_a):
        counts_a, counts_b = counts_b, counts_a
    lg = params._count_terms
    for tok, ns in counts_a.items():
        nl = counts_b.get(tok)
        if nl is not None:
            terms += (lg[ns + nl], -lg[ns], -lg[nl])
    return fsum(terms)


def split_ratio_raw(side_bag, whole_bag, params):
    """merge_ratio_raw of side_bag and the rest of whole_bag, a (counts,
    total) bag that holds it, without building the rest.

    The terms are the ones merge_ratio_raw adds, so the value is the same to
    the bit: a lemma contributes only if the rest holds some of it too.
    """
    (counts_s, total_s), (counts_w, total_w) = side_bag, whole_bag
    terms = [merge_normaliser_raw(total_s, total_w - total_s, params)]
    lg = params._count_terms
    for tok, ns in counts_s.items():
        nw = counts_w[tok]
        if nw != ns:
            terms += (lg[nw], -lg[ns], -lg[nw - ns])
    return fsum(terms)

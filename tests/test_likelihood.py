import math

import numpy as np
import pytest

from hddcrp.corpus import Corpus, Document, Mention
from hddcrp.likelihood import (
    LikelihoodParams,
    corpus_log_likelihood,
    lemma_bags,
    log_marginal_raw,
    merge_normaliser_raw,
    merge_ratio_raw,
    split_ratio_raw,
)
from hddcrp.links import ClusterAssignment
from reference_impls import dirichlet_marginal_reference


def marginal(counts, params):
    return log_marginal_raw(counts, sum(counts.values()), params)


def reordered(bag):
    return dict(reversed(list(bag.items())))


def random_bags(seed, count):
    """(a, b, params) with bags of 2-6 lemmas sharing some of them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        v = int(rng.integers(8, 40))
        a = {f"w{j}": int(rng.integers(1, 9)) for j in rng.choice(8, rng.integers(2, 7), False)}
        b = {f"w{j}": int(rng.integers(1, 9)) for j in rng.choice(8, rng.integers(2, 7), False)}
        c = float(rng.choice([1e-7, 0.3, 0.5, 1.0]))
        yield a, b, LikelihoodParams(concentration=c, vocab_size=v)


class TestClosedForms:
    def test_two_of_one_word_one_of_another(self):
        # counts (2,1), vocab 2, concentration 1:
        # G(2)G(2+3) / [G(1+2)G(1+1) / G(1)G(1)] inverted = 1/12
        params = LikelihoodParams(concentration=1.0, vocab_size=2)
        got = marginal({"a": 2, "b": 1}, params)
        assert math.isclose(got, math.log(1 / 12), rel_tol=1e-12)

    def test_merge_of_two_distinct_singletons(self):
        # merging {a} with {b} at vocab 2, concentration 1:
        # p({a,b}) / (p({a}) p({b})) = (1/6) / (1/2 * 1/2) = 2/3
        params = LikelihoodParams(concentration=1.0, vocab_size=2)
        got = merge_ratio_raw({"a": 1}, 1, {"b": 1}, 1, params)
        assert math.isclose(got, math.log(2 / 3), rel_tol=1e-12)

    def test_empty_cluster_scores_zero(self):
        params = LikelihoodParams(concentration=0.5, vocab_size=4)
        assert marginal({}, params) == 0.0


class TestAgainstDenseGammaReference:
    def test_random_count_vectors(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            v = int(rng.integers(1, 9))
            k = int(rng.integers(1, v + 1))
            counts = {f"w{j}": int(rng.integers(1, 7)) for j in range(k)}
            c = float(rng.choice([1e-7, 0.01, 0.5, 1.0, 2.0]))
            params = LikelihoodParams(concentration=c, vocab_size=v)
            want = dirichlet_marginal_reference(counts, v, c)
            assert math.isclose(marginal(counts, params), want, abs_tol=1e-9)

    def test_merge_ratio_equals_difference_of_marginals(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            v = int(rng.integers(2, 9))
            ka = int(rng.integers(1, v))
            kb = int(rng.integers(1, v))
            a = {f"w{j}": int(rng.integers(1, 5)) for j in rng.choice(v, ka, replace=False)}
            b = {f"w{j}": int(rng.integers(1, 5)) for j in rng.choice(v, kb, replace=False)}
            c = float(rng.choice([1e-7, 0.3, 1.0]))
            merged = dict(a)
            for tok, n in b.items():
                merged[tok] = merged.get(tok, 0) + n
            want = (
                dirichlet_marginal_reference(merged, v, c)
                - dirichlet_marginal_reference(a, v, c)
                - dirichlet_marginal_reference(b, v, c)
            )
            params = LikelihoodParams(concentration=c, vocab_size=v)
            got = merge_ratio_raw(a, sum(a.values()), b, sum(b.values()), params)
            assert math.isclose(got, want, abs_tol=1e-9)

    def test_normaliser_is_the_whole_ratio_of_disjoint_bags(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            v = int(rng.integers(2, 9))
            words = rng.permutation(v)
            cut = int(rng.integers(1, v))
            a = {f"w{j}": int(rng.integers(1, 5)) for j in words[:cut]}
            b = {f"w{j}": int(rng.integers(1, 5)) for j in words[cut:]}
            ta, tb = sum(a.values()), sum(b.values())
            p = LikelihoodParams(concentration=float(rng.choice([1e-7, 0.3, 1.0])), vocab_size=v)
            assert merge_normaliser_raw(ta, tb, p) == merge_ratio_raw(a, ta, b, tb, p)
            assert merge_normaliser_raw(tb, ta, p) == merge_ratio_raw(b, tb, a, ta, p)


class TestOrderFreeSums:
    """Equal bags score equally whatever the order of their lemmas, so bags
    can be updated by count deltas instead of rebuilt in a fixed order."""

    def test_marginal_ignores_lemma_order(self):
        for a, _, params in random_bags(31, 200):
            assert marginal(reordered(a), params) == marginal(a, params)

    def test_merge_ratio_ignores_lemma_order_and_argument_order(self):
        for a, b, params in random_bags(32, 200):
            ta, tb = sum(a.values()), sum(b.values())
            want = merge_ratio_raw(a, ta, b, tb, params)
            assert merge_ratio_raw(reordered(a), ta, b, tb, params) == want
            assert merge_ratio_raw(a, ta, reordered(b), tb, params) == want
            assert merge_ratio_raw(b, tb, a, ta, params) == want

    def test_a_bag_updated_by_count_deltas_scores_as_one_built_afresh(self):
        # b + a - b leaves a's counts in b's lemma order
        for a, b, params in random_bags(33, 200):
            bag = dict(b)
            for tok, n in a.items():
                bag[tok] = bag.get(tok, 0) + n
            for tok, n in b.items():
                bag[tok] -= n
                if not bag[tok]:
                    del bag[tok]
            assert bag == a
            assert marginal(bag, params) == marginal(a, params)
            tc = sum(b.values())
            assert merge_ratio_raw(bag, sum(a.values()), b, tc, params) == merge_ratio_raw(
                a, sum(a.values()), b, tc, params
            )

    def test_tables_grow_on_demand(self):
        params = LikelihoodParams(concentration=0.5, vocab_size=3)
        big = {"a": 400, "b": 700}
        want = dirichlet_marginal_reference(big, 3, 0.5)
        assert math.isclose(marginal(big, params), want, rel_tol=1e-12)
        assert math.isclose(
            merge_normaliser_raw(900, 1500, params),
            marginal({"a": 900, "b": 1500}, params)
            - marginal({"a": 900}, params)
            - marginal({"b": 1500}, params),
            rel_tol=1e-12,
        )


class TestSplitRatio:
    """split_ratio_raw scores a side against the rest of a whole bag as
    merge_ratio_raw scores it against the rest built out."""

    @staticmethod
    def assert_split_matches_merge(side, rest, params):
        whole = dict(rest)
        for tok, n in side.items():
            whole[tok] = whole.get(tok, 0) + n
        ts, tr = sum(side.values()), sum(rest.values())
        got = split_ratio_raw((side, ts), (whole, ts + tr), params)
        assert got == merge_ratio_raw(side, ts, rest, tr, params)
        assert got == merge_ratio_raw(rest, tr, side, ts, params)

    def test_overlapping_bags(self):
        for a, b, params in random_bags(34, 300):
            self.assert_split_matches_merge(a, b, params)
            self.assert_split_matches_merge(b, a, params)

    def test_disjoint_bags(self):
        for a, b, params in random_bags(35, 200):
            b = {f"x{tok}": n for tok, n in b.items()}
            self.assert_split_matches_merge(a, b, params)
            self.assert_split_matches_merge(b, a, params)

    def test_empty_bags(self):
        for a, _, params in random_bags(36, 50):
            self.assert_split_matches_merge(a, {}, params)
            self.assert_split_matches_merge({}, a, params)
            # the flat likelihood's bags are all empty
            self.assert_split_matches_merge({}, {}, params)
            assert split_ratio_raw(({}, 0), ({}, 0), params) == 0.0


class TestLemmaBags:
    def test_counts_and_totals_per_list(self):
        counts, totals, _ = lemma_bags([("a", "b", "a"), ("b",), ()])
        assert counts == [{"a": 2, "b": 1}, {"b": 1}, {}]
        assert totals == [3, 1, 0]

    def test_bag_of_sums_a_set_of_lists(self):
        _, _, bag_of = lemma_bags([("a", "b", "a"), ("b",), ("c",)])
        assert bag_of({0, 1}) == ({"a": 2, "b": 2}, 4)
        assert bag_of(set()) == ({}, 0)

    def test_collects_span_lemmas_of_mentions(self, tiny_corpus):
        order = tiny_corpus.mentions_in_order()
        _, _, bag_of = lemma_bags(m.span_lemmas for m in order)
        assert bag_of(range(2)) == ({"bomb": 1, "blast": 1}, 2)


class TestCorpusLogLikelihood:
    def test_sums_per_cluster_marginals(self, tiny_corpus):
        params = LikelihoodParams.for_corpus(tiny_corpus, 0.5)
        order = [m.mention_id for m in tiny_corpus.mentions_in_order()]
        assignment = ClusterAssignment(order, [0 if "m0" in m else 1 for m in order])
        want = 0.0
        by_mid = {m.mention_id: m for m in tiny_corpus.mentions_in_order()}
        for part in assignment.partition():
            counts = {}
            for mid in part:
                for tok in by_mid[mid].span_lemmas:
                    counts[tok] = counts.get(tok, 0) + 1
            want += dirichlet_marginal_reference(counts, params.vocab_size, 0.5)
        got = corpus_log_likelihood(assignment, tiny_corpus, params)
        assert math.isclose(got, want, abs_tol=1e-9)

    def test_vocab_size_comes_from_span_lemmas(self, tiny_corpus, synthetic_corpus):
        assert LikelihoodParams.for_corpus(tiny_corpus, 1e-7).vocab_size == 3
        assert LikelihoodParams.for_corpus(synthetic_corpus, 1e-7).vocab_size == 30

    def test_concentration_must_be_positive(self):
        with pytest.raises(ValueError):
            LikelihoodParams(concentration=0.0, vocab_size=3)

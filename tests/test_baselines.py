import dataclasses

import pytest
from reference_impls import agglomerative_reference

from hddcrp import features
from hddcrp.baselines import AgglomerativeConfig, agglomerative, lemma_baseline
from hddcrp.corpus import gold_partition
from hddcrp.errors import InputError
from hddcrp.metrics import score


class TestLemmaBaseline:
    def test_groups_exactly_by_head_lemma(self, synthetic_corpus):
        clustering = lemma_baseline(synthetic_corpus)
        mapping = clustering.as_mapping()
        heads = {m.mention_id: m.head_lemma for m in synthetic_corpus.mentions_in_order()}
        for a, la in mapping.items():
            for b, lb in mapping.items():
                assert (la == lb) == (heads[a] == heads[b])

    def test_cluster_count_equals_distinct_heads(self, synthetic_corpus):
        heads = {m.head_lemma for m in synthetic_corpus.mentions_in_order()}
        assert lemma_baseline(synthetic_corpus).n_clusters() == len(heads) == 24

    def test_over_merges_lemma_ambiguous_events(self, synthetic_corpus):
        # two gold events share the head "bombing", so lemma recall beats precision
        gold = gold_partition(synthetic_corpus)
        report = score(synthetic_corpus, gold, lemma_baseline(synthetic_corpus), "CD")
        assert report.conll_f1 < 0.75


class TestAgglomerative:
    def test_thresholds_must_lie_in_unit_interval(self):
        with pytest.raises(ValueError):
            AgglomerativeConfig(wd_threshold=1.5)
        with pytest.raises(InputError):
            AgglomerativeConfig(cd_threshold=float("nan"))

    def test_high_cross_threshold_keeps_clusters_within_documents(
        self, synthetic_corpus, resources, trained_model
    ):
        config = AgglomerativeConfig(wd_threshold=0.5, cd_threshold=1.0)
        clustering = agglomerative(synthetic_corpus, trained_model, resources, config)
        docs = {m.mention_id: m.doc_id for m in synthetic_corpus.mentions_in_order()}
        for part in clustering.partition():
            assert len({docs[mid] for mid in part}) == 1

    def test_beats_the_lemma_baseline_with_a_good_model(
        self, synthetic_corpus, resources, trained_model
    ):
        gold = gold_partition(synthetic_corpus)
        agg = agglomerative(synthetic_corpus, trained_model, resources)
        lemma = lemma_baseline(synthetic_corpus)
        agg_cd = score(synthetic_corpus, gold, agg, "CD").conll_f1
        lemma_cd = score(synthetic_corpus, gold, lemma, "CD").conll_f1
        assert agg_cd > lemma_cd

    def test_is_deterministic(self, synthetic_corpus, resources, trained_model):
        one = agglomerative(synthetic_corpus, trained_model, resources)
        two = agglomerative(synthetic_corpus, trained_model, resources)
        assert one == two

    @pytest.mark.parametrize(
        "wd, cd", [(0.5, 0.5), (0.3, 0.7), (0.9, 0.0), (0.0, 1.0), (0.7, 0.55), (0.5, 0.3)]
    )
    @pytest.mark.parametrize("truncation", [0.5, 0.99])
    @pytest.mark.parametrize(
        "corpus_name, block_rows",
        [("synthetic_corpus", 5), ("synthetic_corpus", features.BLOCK_ROWS),
         ("replicated_corpus", features.BLOCK_ROWS)],
    )
    def test_matches_the_per_pair_reference(
        self, request, resources, trained_model, wd, cd, truncation, block_rows, corpus_name,
        monkeypatch,
    ):
        monkeypatch.setattr(features, "BLOCK_ROWS", block_rows)
        corpus = request.getfixturevalue(corpus_name)
        model = dataclasses.replace(trained_model, truncation_threshold=truncation)
        got = agglomerative(corpus, model, resources, AgglomerativeConfig(wd, cd))
        want = agglomerative_reference(corpus, model, resources, wd, cd)
        assert set(got.partition()) == want

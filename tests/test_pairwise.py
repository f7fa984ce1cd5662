import json
import math

import numpy as np
import pytest
from scipy.special import expit

from hddcrp import features, pairwise
from hddcrp.corpus import Corpus, Document, Mention, doc_similarity
from hddcrp.errors import InputError
from hddcrp.features import PairFeatures
from hddcrp.pairwise import (
    PairwiseModel,
    build_training_pairs,
    fit_theta,
    load_model,
    pair_accuracy,
    pair_features,
    penalized_grad,
    penalized_loglik,
    save_model,
    train,
)
from hddcrp.sampling import SamplerConfig, build_priors

from reference_impls import priors_reference


class TestTrainingPairs:
    def test_pair_counts_on_the_synthetic_corpus(self, synthetic_corpus):
        pairs = build_training_pairs(synthetic_corpus, sigma=0.4)
        by_doc = {d.doc_id: len(d.mentions) for d in synthetic_corpus.documents}
        within = sum(n * (n - 1) // 2 for n in by_doc.values())
        assert within == 114
        # cross-document pairs survive only inside a topic: 7*6 + 7*6 + 7*7
        assert len(pairs) == within + 42 + 42 + 49 == 247
        assert sum(p.coreferent for p in pairs) == 62

    def test_within_pairs_are_ordered_later_to_earlier(self, synthetic_corpus):
        pairs = build_training_pairs(synthetic_corpus, sigma=0.4)
        mentions = {m.mention_id: m for m in synthetic_corpus.mentions_in_order()}
        for p in pairs:
            a, b = mentions[p.a], mentions[p.b]
            if a.doc_id == b.doc_id:
                assert a.order_index > b.order_index

    def test_cross_pairs_appear_once_and_respect_sigma(self, synthetic_corpus):
        pairs = build_training_pairs(synthetic_corpus, sigma=0.4)
        mentions = {m.mention_id: m for m in synthetic_corpus.mentions_in_order()}
        docs = {d.doc_id: d for d in synthetic_corpus.documents}
        seen = set()
        for p in pairs:
            a, b = mentions[p.a], mentions[p.b]
            key = frozenset((p.a, p.b))
            assert key not in seen
            seen.add(key)
            if a.doc_id != b.doc_id:
                assert doc_similarity(docs[a.doc_id], docs[b.doc_id]) >= 0.4

    def test_raising_sigma_drops_all_cross_pairs(self, synthetic_corpus):
        pairs = build_training_pairs(synthetic_corpus, sigma=1.1)
        assert len(pairs) == 114

    def test_gold_chains_are_required(self, synthetic_corpus):
        bare = Corpus(synthetic_corpus.documents)
        with pytest.raises(InputError):
            build_training_pairs(bare, sigma=0.4)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_is_an_input_error(self, synthetic_corpus, sigma):
        with pytest.raises(InputError):
            build_training_pairs(synthetic_corpus, sigma=sigma)


class TestObjective:
    def rand_problem(self, rng, n=40, d=6):
        x = rng.normal(size=(n, d))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        return x, y

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(41)
        x, y = self.rand_problem(rng)
        for _ in range(5):
            theta = rng.normal(scale=0.8, size=x.shape[1])
            grad = penalized_grad(theta, x, y, l2=0.7)
            h = 1e-6
            for k in range(len(theta)):
                step = np.zeros_like(theta)
                step[k] = h
                fd = (
                    penalized_loglik(theta + step, x, y, 0.7)
                    - penalized_loglik(theta - step, x, y, 0.7)
                ) / (2 * h)
                assert math.isclose(grad[k], fd, rel_tol=1e-5, abs_tol=1e-8)

    def test_l2_penalty_shrinks_the_optimum(self):
        rng = np.random.default_rng(42)
        x, y = self.rand_problem(rng)
        loose = fit_theta(x, y, l2=0.01)
        tight = fit_theta(x, y, l2=10.0)
        assert np.linalg.norm(tight) < np.linalg.norm(loose)

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(43)
        x, y = self.rand_problem(rng)
        assert np.array_equal(fit_theta(x, y, 1.0), fit_theta(x, y, 1.0))


class TestTrainedModel:
    def test_separable_fixture_reaches_high_accuracy(
        self, synthetic_corpus, resources, trained_model
    ):
        pairs = build_training_pairs(synthetic_corpus, sigma=0.4)
        acc = pair_accuracy(trained_model, synthetic_corpus, resources, pairs)
        assert acc >= 0.99

    def test_similarities_separate_coreferent_from_ambiguous(
        self, synthetic_corpus, resources, trained_model
    ):
        m = {x.mention_id: x for x in synthetic_corpus.mentions_in_order()}
        coref = trained_model.pair_similarity(m["doc01-m0"], m["doc01-m2"], resources)
        ambiguous = trained_model.pair_similarity(m["doc01-m0"], m["doc01-m1"], resources)
        assert coref > 0.9 and ambiguous < 0.1

    def test_truncation_zeroes_low_similarities(
        self, synthetic_corpus, resources, trained_model
    ):
        order = synthetic_corpus.mentions_in_order()
        rng = np.random.default_rng(44)
        for _ in range(50):
            i, j = rng.choice(len(order), 2, replace=False)
            sim = trained_model.pair_similarity(order[i], order[j], resources)
            got = trained_model.truncated_similarity(order[i], order[j], resources)
            assert got == (sim if sim >= 0.5 else 0.0)

    def test_zero_weights_sit_exactly_on_the_threshold(
        self, synthetic_corpus, resources, trained_model
    ):
        # theta = 0 gives similarity 0.5 everywhere, which the cutoff keeps
        flat = PairwiseModel(
            np.zeros_like(trained_model.theta), trained_model.extractor
        )
        order = synthetic_corpus.mentions_in_order()
        assert flat.truncated_similarity(order[0], order[1], resources) == 0.5

    def test_within_doc_distance_requires_later_to_earlier(
        self, synthetic_corpus, resources, trained_model
    ):
        m = {x.mention_id: x for x in synthetic_corpus.mentions_in_order()}
        ok = trained_model.within_doc_distance(m["doc01-m2"], m["doc01-m0"], resources)
        assert 0.0 <= ok <= 1.0
        with pytest.raises(ValueError):
            trained_model.within_doc_distance(m["doc01-m0"], m["doc01-m2"], resources)
        with pytest.raises(ValueError):
            trained_model.within_doc_distance(m["doc01-m0"], m["doc02-m0"], resources)

    def test_cross_doc_distance_combines_doc_similarity_and_truncation(
        self, synthetic_corpus, resources, trained_model
    ):
        m = {x.mention_id: x for x in synthetic_corpus.mentions_in_order()}
        docs = {d.doc_id: d for d in synthetic_corpus.documents}
        a, b = m["doc01-m0"], m["doc02-m0"]
        got = trained_model.cross_doc_distance(a, b, docs["doc01"], docs["doc02"], resources)
        trunc = trained_model.truncated_similarity(a, b, resources)
        want = math.exp(
            trained_model.gamma * doc_similarity(docs["doc01"], docs["doc02"])
        ) * trunc
        assert math.isclose(got, want, rel_tol=1e-12)
        with pytest.raises(ValueError):
            trained_model.cross_doc_distance(a, m["doc01-m1"], docs["doc01"], docs["doc01"], resources)

    def test_pair_similarity_is_the_logistic_of_the_score(
        self, synthetic_corpus, resources, trained_model
    ):
        order = synthetic_corpus.mentions_in_order()
        f = trained_model.extractor.extract(order[0], order[1], resources)
        want = float(expit(trained_model.theta @ f))
        got = trained_model.pair_similarity(order[0], order[1], resources)
        assert math.isclose(got, want, rel_tol=1e-12)


class TestPersistence:
    def test_save_load_round_trip_is_exact(
        self, synthetic_corpus, resources, trained_model, tmp_path
    ):
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        again = load_model(path)
        assert np.array_equal(again.theta, trained_model.theta)
        assert again.extractor.feature_names == trained_model.extractor.feature_names
        assert again.l2_strength == trained_model.l2_strength
        assert again.truncation_threshold == trained_model.truncation_threshold
        assert again.gamma == trained_model.gamma
        order = synthetic_corpus.mentions_in_order()
        assert again.pair_similarity(order[0], order[3], resources) == (
            trained_model.pair_similarity(order[0], order[3], resources)
        )

    def test_malformed_model_file_reports_input_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"theta": "oops"}', encoding="utf-8")
        with pytest.raises(InputError):
            load_model(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("gamma", math.nan), ("l2", math.inf), ("l2", -1.0), ("truncation_threshold", math.nan),
            ("truncation_threshold", 2.0), ("truncation_threshold", -0.1),
            ("feature_index", [1, 2]),
        ],
    )
    def test_hand_edited_hyperparameters_are_checked_on_load(
        self, trained_model, tmp_path, key, value
    ):
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj[key] = value
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(InputError):
            load_model(path)


class TestTrainValidation:
    def test_single_class_corpus_rejected(self):
        mentions = [
            Mention("d-m0", "d", 0, "x", "NN", ("x",), (), {}),
            Mention("d-m1", "d", 1, "x", "NN", ("x",), (), {}),
        ]
        doc = Document.build("d", "ev", mentions)
        from hddcrp.corpus import GoldChains, LexicalResources

        corpus = Corpus((doc,), GoldChains((frozenset({"d-m0", "d-m1"}),)))
        with pytest.raises(InputError):
            train(corpus, LexicalResources())

    @pytest.mark.parametrize(
        "name, value",
        [
            ("l2", math.nan), ("l2", -0.5), ("gamma", math.nan), ("gamma", math.inf),
            ("truncation_threshold", -math.inf), ("truncation_threshold", 1.5),
        ],
    )
    def test_non_finite_hyperparameters_are_rejected_before_the_fit(
        self, synthetic_corpus, resources, monkeypatch, name, value
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("fit_theta called")

        monkeypatch.setattr(pairwise, "fit_theta", no_fit)
        with pytest.raises(InputError):
            train(synthetic_corpus, resources, **{name: value})


@pytest.fixture(params=[5, features.BLOCK_ROWS], ids=["small-blocks", "default-blocks"])
def block_rows(request, monkeypatch):
    """Run a test with the default block size and with blocks that split
    documents, so block boundaries are crossed."""
    monkeypatch.setattr(features, "BLOCK_ROWS", request.param)
    monkeypatch.setattr(pairwise, "BLOCK_ROWS", request.param)
    return request.param


class TestBlockScoring:
    def test_similarity_block_equals_pair_similarity(
        self, synthetic_corpus, resources, trained_model
    ):
        order = synthetic_corpus.mentions_in_order()
        pf = PairFeatures(trained_model.extractor, order, resources)
        got = trained_model.similarity_block(pf, slice(None), slice(None))
        want = [[trained_model.pair_similarity(a, b, resources) for b in order] for a in order]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_upper_pairs_cover_each_unordered_pair_once(
        self, synthetic_corpus, resources, trained_model, block_rows
    ):
        order = synthetic_corpus.mentions_in_order()
        seen = []
        for i, j, sim in trained_model.upper_pairs(order, resources):
            assert (i < j).all()
            seen += zip(i.tolist(), j.tolist())
            for a, b, s in zip(i, j, sim):
                want = trained_model.pair_similarity(order[a], order[b], resources)
                assert abs(s - want) <= 1e-12
        n = len(order)
        assert sorted(seen) == [(i, j) for i in range(n) for j in range(i + 1, n)]

    @pytest.mark.parametrize("model", ["hddcrp", "ddcrp_flat", "hdp_lex", "hddcrp_star"])
    def test_build_priors_equals_the_per_pair_reference(
        self, synthetic_corpus, resources, trained_model, model, block_rows
    ):
        config = SamplerConfig(model=model)
        priors = build_priors(synthetic_corpus, config, trained_model, resources)
        customer, table = priors_reference(synthetic_corpus, config, trained_model, resources)
        layers = [(priors.customer, customer)]
        if model == "hddcrp":
            layers.append((priors.table, table))
        else:
            assert priors.table is None
        for got, want in layers:
            assert len(got) == len(want)
            for got_row, want_row in zip(got, want):
                assert [j for j, _ in got_row] == [j for j, _ in want_row]
                for (_, w), (_, v) in zip(got_row, want_row):
                    assert abs(w - v) <= 1e-12
                assert all(type(j) is int and type(w) is float for j, w in got_row)

    def test_training_features_equal_extract(self, synthetic_corpus, resources):
        pairs = build_training_pairs(synthetic_corpus, sigma=0.4)
        ex = pairwise.FeatureExtractor.from_corpus(synthetic_corpus)
        got = pair_features(synthetic_corpus, resources, ex, pairs)
        m = synthetic_corpus.mention
        want = np.array([ex.extract(m(p.a), m(p.b), resources) for p in pairs])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_given_features_give_the_same_fit_and_accuracy(
        self, synthetic_corpus, resources, trained_model
    ):
        pairs = build_training_pairs(synthetic_corpus, sigma=0.4)
        x = pair_features(synthetic_corpus, resources, trained_model.extractor, pairs)
        again = train(synthetic_corpus, resources, pairs=pairs, features=x)
        assert np.array_equal(again.theta, trained_model.theta)
        m = synthetic_corpus.mention
        per_pair = sum(
            (trained_model.pair_similarity(m(p.a), m(p.b), resources) >= 0.5) == p.coreferent
            for p in pairs
        ) / len(pairs)
        assert pair_accuracy(trained_model, synthetic_corpus, resources, pairs, features=x) == (
            pair_accuracy(trained_model, synthetic_corpus, resources, pairs)
        ) == per_pair

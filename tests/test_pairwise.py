import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.special import expit

from hddcrp import features, pairwise
from hddcrp.baselines import AgglomerativeConfig, agglomerative
from hddcrp.corpus import (
    ARGUMENT_ROLES, Corpus, Document, LexicalResources, Mention, doc_similarity
)
from hddcrp.errors import InputError
from hddcrp.features import FeatureExtractor, PairFeatures
from hddcrp.pairwise import (
    PairwiseModel,
    build_training_pairs,
    fit_theta,
    load_model,
    pair_accuracy,
    pair_features,
    save_model,
    train,
)
from hddcrp.sampling import SamplerConfig, build_priors

from reference_impls import (
    penalized_grad,
    penalized_loglik,
    priors_reference,
    scored_pairs_reference,
    similarity_block,
    training_pairs_reference,
)


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
        mentions = synthetic_corpus.mentions_in_order()
        for p in pairs:
            a, b = mentions[p.a], mentions[p.b]
            if a.doc_id == b.doc_id:
                assert a.order_index > b.order_index

    def test_cross_pairs_appear_once_and_respect_sigma(self, synthetic_corpus):
        pairs = build_training_pairs(synthetic_corpus, sigma=0.4)
        mentions = synthetic_corpus.mentions_in_order()
        docs = {d.doc_id: d for d in synthetic_corpus.documents}
        seen = set()
        for p in pairs:
            a, b = mentions[p.a], mentions[p.b]
            key = frozenset((p.a, p.b))
            assert key not in seen
            seen.add(key)
            if a.doc_id != b.doc_id:
                assert doc_similarity(docs[a.doc_id], docs[b.doc_id]) >= 0.4

    @pytest.mark.parametrize("sigma", [0.4, 1.1])
    def test_rows_equal_the_per_pair_reference(self, synthetic_corpus, sigma):
        # the fitted weights are byte-identical only if the rows keep their order
        pairs = build_training_pairs(synthetic_corpus, sigma)
        got = list(zip(pairs.a.tolist(), pairs.b.tolist(), pairs.coreferent.tolist()))
        assert got == training_pairs_reference(synthetic_corpus, sigma)

    def test_rows_equal_the_per_pair_reference_on_edge_cases(self):
        def doc(doc_id, *spans):
            return Document(doc_id, "ev", [
                Mention(f"{doc_id}{k}", doc_id, k, span[0], "NN", span, (), {})
                for k, span in enumerate(spans)
            ])

        # doc a has one mention and cosine exactly 1 / (1 * 2) with doc b;
        # c0 and c2 are in no gold chain
        docs = (
            doc("a", ("x",)), doc("b", ("x", "y"), ("z", "w")), doc("c", ("y",), ("q",), ("q",))
        )
        corpus = Corpus(docs, ({"a0", "b0"}, {"b1", "c1"}))
        assert doc_similarity(docs[0], docs[1]) == 0.5
        pairs = build_training_pairs(corpus, 0.5)
        got = list(zip(pairs.a.tolist(), pairs.b.tolist(), pairs.coreferent.tolist()))
        assert got == training_pairs_reference(corpus, 0.5)
        assert got[-2:] == [(0, 1, True), (0, 2, False)]

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

    def test_the_objective_equals_value_and_gradient_computed_apart(self):
        rng = np.random.default_rng(44)
        x, y = self.rand_problem(rng)
        for _ in range(5):
            theta = rng.normal(scale=0.8, size=x.shape[1])
            value, grad = pairwise._objective(theta, x, y, 0.7)
            assert value == -penalized_loglik(theta, x, y, 0.7)
            assert np.array_equal(grad, -penalized_grad(theta, x, y, 0.7))

    def test_fit_equals_a_fit_on_the_two_call_objective(self, synthetic_corpus, resources):
        # each evaluation of the two-call objective computes features @ theta twice
        from scipy.optimize import minimize

        def two_calls(theta, features, labels, l2):
            return (-penalized_loglik(theta, features, labels, l2),
                    -penalized_grad(theta, features, labels, l2))

        pairs = build_training_pairs(synthetic_corpus)
        extractor = FeatureExtractor.from_corpus(synthetic_corpus)
        problems = [self.rand_problem(np.random.default_rng(45))]
        problems.append((pairwise.pair_features(synthetic_corpus, resources, extractor, pairs),
                         np.where(pairs.coreferent, 1.0, -1.0)))
        for x, y in problems:
            want = minimize(
                two_calls, np.zeros(x.shape[1]), args=(x, y, 1.0), jac=True, method="L-BFGS-B",
                options={"gtol": pairwise.GTOL, "ftol": 1e-14, "maxiter": pairwise.MAX_ITER,
                         "maxfun": 10 * pairwise.MAX_ITER},
            ).x
            assert np.array_equal(fit_theta(x, y, 1.0), want)


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
            ("feature_index", [1, 2]), ("gamma", 1e308), ("theta", [1e308] * 21),
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
        doc = Document("d", "ev", mentions)
        from hddcrp.corpus import LexicalResources

        corpus = Corpus((doc,), ({"d-m0", "d-m1"},))
        with pytest.raises(InputError):
            train(corpus, LexicalResources())

    def test_an_empty_pair_set_is_rejected(self):
        doc = Document("d", "ev", [Mention("d-m0", "d", 0, "x", "NN", ("x",), (), {})])
        corpus = Corpus((doc,), ())
        with pytest.raises(InputError, match="no training pairs"):
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
    return request.param


@pytest.fixture(scope="module")
def long_and_empty_corpus(replicated_corpus):
    """The replicated corpus with its first twelve documents merged into one
    of 80 mentions, longer than a default block, and an empty document
    between that one and the rest."""
    docs = replicated_corpus.documents
    merged = [m for d in docs[:12] for m in d.mentions]
    long_doc = Document("a-long", "e-long", [
        dataclasses.replace(m, doc_id="a-long", order_index=k) for k, m in enumerate(merged)
    ])
    empty = Document("b-empty", "e-empty", [])
    corpus = Corpus((long_doc, empty, *docs[12:]), replicated_corpus.gold)
    assert len(long_doc.mentions) > features.BLOCK_ROWS
    assert corpus.bounds[1] == corpus.bounds[2]
    return corpus


@pytest.fixture(scope="module")
def long_and_empty_similarities(long_and_empty_corpus, resources, trained_model):
    """pair_similarity of every pair of long_and_empty_corpus, and the same
    matrix from one similarity_block of every ordered pair."""
    order = long_and_empty_corpus.mentions_in_order()
    want = np.array([
        [trained_model.pair_similarity(a, b, resources) for b in order] for a in order
    ])
    pf = PairFeatures(trained_model.extractor, order, resources)
    i, j = np.divmod(np.arange(len(order) ** 2), len(order))
    return want, similarity_block(trained_model, pf, i, j).reshape(want.shape)


class TestBlockScoring:
    def test_similarity_block_equals_pair_similarity(
        self, synthetic_corpus, resources, trained_model
    ):
        order = synthetic_corpus.mentions_in_order()
        pf = PairFeatures(trained_model.extractor, order, resources)
        i, j = np.divmod(np.arange(len(order) ** 2), len(order))
        got = similarity_block(trained_model, pf, i, j).reshape(len(order), len(order))
        want = [[trained_model.pair_similarity(a, b, resources) for b in order] for a in order]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("across", [True, False])
    @pytest.mark.parametrize("block_rows", [1, 5, 64])
    @pytest.mark.parametrize("floor", [0.0, 0.5])
    def test_scored_pairs_cover_each_pair_once(
        self, long_and_empty_corpus, long_and_empty_similarities, resources, trained_model,
        monkeypatch, across, block_rows, floor,
    ):
        monkeypatch.setattr(features, "BLOCK_ROWS", block_rows)
        corpus = long_and_empty_corpus
        want, unblocked = long_and_empty_similarities
        seen = []
        for i, j, sim in trained_model.scored_pairs(
            corpus, resources, floor, floor if across else None
        ):
            assert (i < j).all()
            seen += zip(i.tolist(), j.tolist())
            np.testing.assert_allclose(sim, want[i, j], rtol=0, atol=1e-12)
            # a candidate's similarity is the one of scoring every pair
            assert (sim == unblocked[i, j]).all()
        doc_of = corpus.doc_of()
        n = len(corpus.mention_ids)
        # the kept pairs are those of the reference walk at or above the floor
        assert seen == sorted(seen)
        assert seen == [
            (i, j) for i in range(n) for j in range(i + 1, n)
            if (across or doc_of[i] == doc_of[j]) and unblocked[i, j] >= floor
        ]

    @pytest.mark.parametrize("model", ["hddcrp", "ddcrp_flat", "hdp_lex", "hddcrp_star"])
    @pytest.mark.parametrize("corpus_name", ["synthetic_corpus", "replicated_corpus"])
    def test_build_priors_equals_the_per_pair_reference(
        self, request, resources, trained_model, model, block_rows, corpus_name
    ):
        corpus = request.getfixturevalue(corpus_name)
        config = SamplerConfig(model=model)
        priors = build_priors(corpus, config, trained_model, resources)
        customer, table = priors_reference(corpus, config, trained_model, resources)
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
        m = synthetic_corpus.mentions_in_order()
        want = np.array([ex.extract(m[p.a], m[p.b], resources) for p in pairs])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_given_features_give_the_same_fit_and_accuracy(
        self, synthetic_corpus, resources, trained_model
    ):
        pairs = build_training_pairs(synthetic_corpus, sigma=0.4)
        x = pair_features(synthetic_corpus, resources, trained_model.extractor, pairs)
        again = train(synthetic_corpus, resources, pairs=pairs, features=x)
        assert np.array_equal(again.theta, trained_model.theta)
        m = synthetic_corpus.mentions_in_order()
        per_pair = sum(
            (trained_model.pair_similarity(m[p.a], m[p.b], resources) >= 0.5) == p.coreferent
            for p in pairs
        ) / len(pairs)
        assert pair_accuracy(trained_model, synthetic_corpus, resources, pairs, features=x) == (
            pair_accuracy(trained_model, synthetic_corpus, resources, pairs)
        ) == per_pair


def walked(pairs):
    """The (i, j, similarity) arrays of a walk, concatenated over its blocks."""
    return [np.concatenate(x) for x in zip(*pairs)]


# the candidate walk, as defined, whatever a test patches in its place
WALK = PairwiseModel.scored_pairs


def assert_walks_agree(model, corpus, resources, within, across):
    """The candidate walk keeps exactly the pairs and similarities (==) that
    the full rectangle walk keeps; returns the kept pairs."""
    got = walked(WALK(model, corpus, resources, within, across))
    want = walked(scored_pairs_reference(model, corpus, resources, within, across))
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    return got


@pytest.fixture(scope="module")
def at_threshold_corpus():
    """Two documents whose heads have embeddings and synonyms, mixing a POS
    tag the trained extractor knows with one it does not."""
    def doc(doc_id, *mentions):
        return Document(doc_id, "ev", [
            Mention(f"{doc_id}-m{k}", doc_id, k, head, pos, span, context, args)
            for k, (head, pos, span, context, args) in enumerate(mentions)
        ])

    return Corpus((
        doc("d0", ("quake", "NN", ("quake",), ("ground",), {"location": (("city",),)}),
            ("blast", "VB", ("blast", "loud"), ("smoke",), {})),
        doc("d1", ("tremor", "NN", ("tremor",), ("shaking",), {"location": (("town",),)}),
            ("explosion", "VB", ("explosion", "loud"), ("smoke", "fire"), {}),
            ("rally", "NN", ("rally",), (), {})),
    ), ())


class TestCandidateWalk:
    @pytest.fixture
    def checked_walk(self, monkeypatch):
        """Make every scored_pairs call assert that the candidate walk agrees
        with the full walk, and record the floors the consumers pass."""
        floors = []

        def checked(model, corpus, resources, within, across):
            floors.append((within, across))
            assert_walks_agree(model, corpus, resources, within, across)
            return WALK(model, corpus, resources, within, across)

        monkeypatch.setattr(PairwiseModel, "scored_pairs", checked)
        return floors

    def run_consumers(self, corpus, resources, model, wd, cd):
        for kind in ("hddcrp", "hddcrp_star", "ddcrp_flat"):
            build_priors(corpus, SamplerConfig(model=kind), model, resources)
        agglomerative(corpus, model, resources, AgglomerativeConfig(wd, cd))

    @pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize(
        "corpus_name", ["synthetic_corpus", "replicated_corpus", "long_and_empty_corpus"]
    )
    def test_consumers_see_the_pairs_the_full_walk_keeps(
        self, request, resources, trained_model, checked_walk, threshold, corpus_name
    ):
        corpus = request.getfixturevalue(corpus_name)
        model = dataclasses.replace(trained_model, truncation_threshold=threshold)
        self.run_consumers(corpus, resources, model, threshold, 1.0 - threshold)
        t = threshold
        assert checked_walk == [(t, t), (t, None), (t, t), (t, max(1.0 - t, t) if t < 1 else 0.0)]

    def test_a_pair_exactly_at_the_threshold_is_kept(
        self, at_threshold_corpus, resources, trained_model, checked_walk
    ):
        # weights under which the logit of quake and tremor, which share no
        # token, equals its bound: their POS pair has the largest POS weight,
        # and the one both-present weight that is positive is theirs
        names = trained_model.extractor.feature_names
        theta = trained_model.theta.copy()
        theta[names.index("pos_pair=other")] = theta[names.index("pos_pair=NN|NN")]
        for role in ARGUMENT_ROLES:
            k = names.index(f"{role}_both_present")
            theta[k] = abs(theta[k]) + 0.5 if role == "location" else -abs(theta[k])
        tight = dataclasses.replace(trained_model, theta=theta)
        corpus = at_threshold_corpus
        i, j, sims = walked(scored_pairs_reference(tight, corpus, resources, 0.0, 0.0))
        (at,) = np.flatnonzero((i == 0) & (j == 2))
        model = dataclasses.replace(tight, truncation_threshold=float(sims[at]))
        self.run_consumers(corpus, resources, model, model.truncation_threshold,
                           model.truncation_threshold)
        assert len(checked_walk) == 4
        kept_i, kept_j, _ = assert_walks_agree(model, corpus, resources, sims[at], sims[at])
        kept = set(zip(kept_i.tolist(), kept_j.tolist()))
        assert (0, 2) in kept
        # some pair falls below the threshold
        assert len(kept) < len(i)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_weights_keep_what_the_full_walk_keeps(
        self, replicated_corpus, at_threshold_corpus, resources, trained_model, seed
    ):
        rng = np.random.default_rng(seed)
        names = trained_model.extractor.feature_names
        theta = rng.normal(0.0, 3.0, len(names))
        theta[names.index("bias")] = abs(theta[names.index("bias")]) + 1.0
        tf = [k for k, name in enumerate(names) if name.endswith("tf_cosine")]
        theta[tf] = -np.abs(theta[tf])
        model = dataclasses.replace(trained_model, theta=theta)
        for corpus in (replicated_corpus, at_threshold_corpus):
            _, _, sims = walked(scored_pairs_reference(model, corpus, resources, 0.0, 0.0))
            # floors that are similarities of the corpus, so that some pairs lie on them
            low, high = np.quantile(sims, [0.3, 0.8], method="lower")
            assert_walks_agree(model, corpus, resources, low, high)
            assert_walks_agree(model, corpus, resources, high, low)
            assert_walks_agree(model, corpus, resources, high, None)

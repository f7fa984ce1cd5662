import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hddcrp import features
from hddcrp.corpus import (
    ARGUMENT_ROLES, LexicalResources, Mention, count_cosine, doc_similarity
)
from hddcrp.features import FeatureExtractor, PairFeatures, cosine_matrix, pos_pair_key


def mention(head, pos="NN", span=None, context=(), arguments=None, doc="d", k=0):
    return Mention(
        f"{doc}-m{k}", doc, k, head, pos, span or (head,), tuple(context), arguments or {}
    )


class TestLayout:
    def test_feature_order_is_stable(self, synthetic_corpus):
        ex = FeatureExtractor.from_corpus(synthetic_corpus)
        names = list(ex.feature_names)
        assert names[0] == "head_match"
        assert names[-1] == "bias"
        assert "head_embedding_cosine" in names
        assert f"{ARGUMENT_ROLES[0]}_tf_cosine" in names
        assert len(names) == len(set(names)) == len(ex)

    def test_pos_pairs_cover_all_observed_tag_combinations(self, synthetic_corpus):
        ex = FeatureExtractor.from_corpus(synthetic_corpus)
        # the synthetic corpus tags every head NN
        assert ex.pos_pairs == ("NN|NN",)
        assert "pos_pair=NN|NN" in ex.feature_names
        assert "pos_pair=other" in ex.feature_names

    def test_pos_pair_key_is_order_free(self):
        assert pos_pair_key("VB", "NN") == pos_pair_key("NN", "VB") == "NN|VB"

    def test_round_trip_through_feature_index(self, synthetic_corpus):
        ex = FeatureExtractor.from_corpus(synthetic_corpus)
        again = FeatureExtractor.from_feature_index(dict(ex.feature_index))
        assert again.feature_names == ex.feature_names

    def test_mismatched_feature_index_rejected(self, synthetic_corpus):
        ex = FeatureExtractor.from_corpus(synthetic_corpus)
        broken = dict(ex.feature_index)
        broken["head_match"], broken["bias"] = broken["bias"], broken["head_match"]
        with pytest.raises(ValueError):
            FeatureExtractor.from_feature_index(broken)


class TestValues:
    def test_vectors_are_symmetric_and_bounded(self, synthetic_corpus, resources):
        ex = FeatureExtractor.from_corpus(synthetic_corpus)
        order = synthetic_corpus.mentions_in_order()
        rng = np.random.default_rng(31)
        for _ in range(60):
            a, b = rng.choice(len(order), 2, replace=False)
            va = ex.extract(order[a], order[b], resources)
            vb = ex.extract(order[b], order[a], resources)
            assert np.array_equal(va, vb)
            assert (va >= 0.0).all() and (va <= 1.0).all()

    def test_head_embedding_cosine_matches_fixture_vectors(self, resources):
        # the bundled vectors place bombs at cosine 0.62 from bombing
        ex = FeatureExtractor(["NN|NN"])
        v = ex.extract(mention("bombing"), mention("bombs", k=1), resources)
        assert math.isclose(v[ex.feature_index["head_embedding_cosine"]], 0.62, abs_tol=1e-12)

    def test_unknown_head_gets_zero_cosine(self, resources):
        ex = FeatureExtractor(["NN|NN"])
        v = ex.extract(mention("zzz"), mention("bombing", k=1), resources)
        assert v[ex.feature_index["head_embedding_cosine"]] == 0.0

    def test_synonym_jaccard_counts_shared_entries(self, resources):
        # bombing -> {bombing, blast, explosion, bombs}; blast -> {blast, bombing, explosion}
        ex = FeatureExtractor(["NN|NN"])
        v = ex.extract(mention("bombing"), mention("blast", k=1), resources)
        assert math.isclose(v[ex.feature_index["synonym_jaccard"]], 3 / 4, rel_tol=1e-12)

    def test_head_match_and_bias_flags(self, resources):
        ex = FeatureExtractor(["NN|NN"])
        same = ex.extract(mention("quake"), mention("quake", k=1), resources)
        diff = ex.extract(mention("quake"), mention("talk", k=1), resources)
        assert same[ex.feature_index["head_match"]] == 1.0
        assert diff[ex.feature_index["head_match"]] == 0.0
        assert same[ex.feature_index["bias"]] == diff[ex.feature_index["bias"]] == 1.0

    def test_unseen_pos_pair_falls_back_to_other(self, resources):
        ex = FeatureExtractor(["NN|NN"])
        v = ex.extract(mention("a", pos="VB"), mention("b", pos="NN", k=1), resources)
        assert v[ex.feature_index["pos_pair=other"]] == 1.0
        assert v[ex.feature_index["pos_pair=NN|NN"]] == 0.0

    def test_span_tf_cosine_hand_value(self, resources):
        # spans {x, y} and {x, z}: cosine 1/2
        ex = FeatureExtractor(["NN|NN"])
        v = ex.extract(
            mention("x", span=("x", "y")), mention("x", span=("x", "z"), k=1), resources
        )
        assert math.isclose(v[ex.feature_index["span_tf_cosine"]], 0.5, rel_tol=1e-12)

    def test_role_features_require_both_sides(self, resources):
        ex = FeatureExtractor(["NN|NN"])
        args = {"participant": (("crowd",),)}
        both = ex.extract(
            mention("x", arguments=args), mention("y", arguments=args, k=1), resources
        )
        one = ex.extract(mention("x", arguments=args), mention("y", k=1), resources)
        assert both[ex.feature_index["participant_both_present"]] == 1.0
        assert both[ex.feature_index["participant_tf_cosine"]] == 1.0
        assert one[ex.feature_index["participant_both_present"]] == 0.0
        assert one[ex.feature_index["participant_tf_cosine"]] == 0.0

    def test_negative_embedding_cosine_clamps_to_zero(self):
        res = LexicalResources(
            embeddings={"up": np.array([1.0, 0.0]), "down": np.array([-1.0, 0.0])},
        )
        ex = FeatureExtractor(["NN|NN"])
        v = ex.extract(mention("up"), mention("down", k=1), res)
        assert v[ex.feature_index["head_embedding_cosine"]] == 0.0


def edge_case_mentions():
    """Mentions covering every special case of the per-pair features."""
    crowd = {"participant": (("crowd", "crowd"), ("police",))}
    return [
        # empty context, a role on one side only, repeated tokens
        mention("bombing", span=("bombing", "car", "car"), context=(), arguments=crowd),
        mention("blast", span=("blast", "car"), context=("city", "city", "night"), k=1),
        # out-of-vocabulary head lemma: zero vector, no synonyms listed
        mention("zzz", span=("zzz",), context=("night",), k=2),
        # a POS pair the extractor never saw (VB|NN falls into "other")
        mention("bombing", pos="VB", arguments={"time": (("monday",),),
                                                 "participant": (("crowd",),)}, k=3),
        mention("quake", span=("quake", "quake"), context=("city",), k=4),
        # a lemma with a vector but no synonym entry; a role whose argument
        # spans are all empty counts as absent
        mention("bombs", arguments={"location": ((),)}, k=5),
    ]


def all_ordered_pairs(n):
    a, b = np.divmod(np.arange(n * n), n)
    return a, b


class TestBlockFeatures:
    def assert_matches_extract(self, extractor, mentions, resources, pairs=None):
        a, b = all_ordered_pairs(len(mentions)) if pairs is None else pairs
        got = PairFeatures(extractor, mentions, resources).gather(a, b)
        want = np.array([extractor.extract(mentions[i], mentions[j], resources)
                         for i, j in zip(a, b)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    def test_every_ordered_pair_of_the_synthetic_corpus(
        self, synthetic_corpus, resources, block_rows, monkeypatch
    ):
        monkeypatch.setattr(features, "BLOCK_ROWS", block_rows)
        ex = FeatureExtractor.from_corpus(synthetic_corpus)
        self.assert_matches_extract(ex, synthetic_corpus.mentions_in_order(), resources)

    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    def test_sparse_pairs_whose_blocks_use_few_columns(
        self, synthetic_corpus, resources, block_rows, monkeypatch
    ):
        # three pairs per row, in shuffled order, some repeated, so that a
        # block of rows uses few columns, out of order and more than once
        monkeypatch.setattr(features, "BLOCK_ROWS", block_rows)
        mentions = synthetic_corpus.mentions_in_order()
        n = len(mentions)
        a = np.repeat(np.arange(n), 3)
        b = np.stack([(np.arange(n) * 7) % n, np.full(n, n - 1), np.arange(n) // 2], 1).ravel()
        order = np.random.default_rng(5).permutation(len(a))
        pairs = np.concatenate([a[order], a[:5]]), np.concatenate([b[order], b[:5]])
        ex = FeatureExtractor.from_corpus(synthetic_corpus)
        self.assert_matches_extract(ex, mentions, resources, pairs)

    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    def test_every_ordered_pair_of_the_edge_cases(self, resources, block_rows, monkeypatch):
        monkeypatch.setattr(features, "BLOCK_ROWS", block_rows)
        ex = FeatureExtractor(["NN|NN"])
        self.assert_matches_extract(ex, edge_case_mentions(), resources)

    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    def test_bags_empty_in_every_mention(self, resources, block_rows, monkeypatch):
        # no mention has a context or an argument: those bags hold no token at all
        monkeypatch.setattr(features, "BLOCK_ROWS", block_rows)
        ex = FeatureExtractor(["NN|NN"])
        ms = [mention(h, k=k) for k, h in enumerate(["bombing", "blast", "zzz", "bombing"])]
        self.assert_matches_extract(ex, ms, resources)
        a, b = all_ordered_pairs(len(ms))
        got = PairFeatures(ex, ms, resources).gather(a, b)
        assert not got[:, ex.feature_index["context_tf_cosine"]].any()

    def test_blocks_whose_rows_hold_no_token_of_a_bag(self, resources, monkeypatch):
        # the first two blocks' rows have empty contexts and no arguments; the
        # tokens of the later mentions are held only by the columns of those
        # blocks, and "ruins" only by the columns of every block before the last
        monkeypatch.setattr(features, "BLOCK_ROWS", 2)
        crowd = {"participant": (("crowd",),)}
        ms = [
            mention("bombing", k=0), mention("blast", k=1),
            mention("quake", k=2), mention("bombs", k=3),
            mention("bombing", context=("city", "city"), arguments=crowd, k=4),
            mention("blast", context=("city", "night"), arguments=crowd, k=5),
            mention("quake", context=("ruins", "night", "night"), k=6),
        ]
        ex = FeatureExtractor(["NN|NN"])
        self.assert_matches_extract(ex, ms, resources)

    def test_edge_cases_reach_the_special_values(self, resources):
        # guards the edge-case corpus itself: each special case really occurs
        ex = FeatureExtractor(["NN|NN"])
        ms = edge_case_mentions()
        a, b = all_ordered_pairs(len(ms))
        got = PairFeatures(ex, ms, resources).gather(a, b)
        idx = ex.feature_index
        assert got[:, idx["pos_pair=other"]].any()
        assert not got[:, idx["context_tf_cosine"]].reshape(len(ms), -1)[0].any()
        assert got[:, idx["participant_both_present"]].any()
        participant = got[:, idx["participant_tf_cosine"]]
        assert ((participant > 0.0) & (participant < 1.0)).any()
        assert not got[:, idx["location_both_present"]].any()
        zzz = got.reshape(len(ms), len(ms), -1)[2]
        assert not zzz[:, idx["head_embedding_cosine"]].any()

    @pytest.mark.parametrize("block_rows", [1, 7, 64])
    def test_cosine_matrix_equals_doc_similarity(self, synthetic_corpus, block_rows, monkeypatch):
        monkeypatch.setattr(features, "BLOCK_ROWS", block_rows)
        docs = synthetic_corpus.documents
        got = cosine_matrix([d.tf_vector for d in docs])
        want = [[doc_similarity(d, e) for e in docs] for d in docs]
        assert got.tolist() == want

    @pytest.mark.parametrize(
        "maps",
        [
            [{}, {"a": 2}, {}, {"a": 1, "b": 3}, {"c": 1}],
            [{}, {}],
            [{}],
            [],
        ],
        ids=["some-empty", "all-empty", "one-empty", "none"],
    )
    def test_cosine_matrix_with_empty_tf_vectors(self, maps, monkeypatch):
        monkeypatch.setattr(features, "BLOCK_ROWS", 2)
        got = cosine_matrix(maps)
        assert got.shape == (len(maps), len(maps))
        assert got.tolist() == [[count_cosine(a, b) for b in maps] for a in maps]

    def test_training_rows_equal_extract_bit_for_bit(self):
        # the fitted weights depend on every last bit of the training rows
        rng = np.random.default_rng(5)
        heads = [f"h{k}" for k in range(12)]
        res = LexicalResources(embeddings={h: rng.normal(size=16) for h in heads[:10]})
        ms = [mention(heads[k % 12], k=k) for k in range(30)]
        ex = FeatureExtractor(["NN|NN"])
        a, b = all_ordered_pairs(len(ms))
        got = PairFeatures(ex, ms, res).gather(a, b)
        want = np.array([ex.extract(ms[i], ms[j], res) for i, j in zip(a, b)])
        assert np.array_equal(got, want)


TOKENS = ("a", "b", "c", "d")
HEADS = ("h0", "h1", "h2", "h3")


@st.composite
def mention_lists(draw):
    """Small mention lists over a few heads and tokens, in one document or
    several: empty contexts and roles, repeated tokens, POS pairs the
    extractor never saw, and head lemmas with no vector or no synonyms."""
    bag = st.lists(st.sampled_from(TOKENS), max_size=4)
    roles = st.dictionaries(
        st.sampled_from(ARGUMENT_ROLES), st.lists(bag.map(tuple), max_size=2).map(tuple),
        max_size=3,
    )
    ms = []
    for k in range(draw(st.integers(1, 9))):
        head = draw(st.sampled_from(HEADS))
        ms.append(mention(
            head, pos=draw(st.sampled_from(("NN", "VB"))), span=(head, *draw(bag)),
            context=draw(bag), arguments=draw(roles), doc=f"d{draw(st.integers(0, 2))}", k=k,
        ))
    vector = st.lists(st.integers(-3, 3).map(float), min_size=3, max_size=3).map(np.array)
    res = LexicalResources(
        embeddings=draw(st.dictionaries(st.sampled_from(HEADS), vector)),
        synonyms=draw(st.dictionaries(
            st.sampled_from(HEADS), st.frozensets(st.sampled_from(HEADS + TOKENS), max_size=3)
        )),
    )
    ex = FeatureExtractor(draw(st.lists(st.sampled_from(("NN|NN", "NN|VB", "VB|VB")))))
    return ex, ms, res


@contextmanager
def block_rows_set(block_rows):
    saved, features.BLOCK_ROWS = features.BLOCK_ROWS, block_rows
    try:
        yield
    finally:
        features.BLOCK_ROWS = saved


class TestProperties:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(mention_lists(), st.sampled_from((1, 2, 64)))
    def test_gather_of_every_ordered_pair_equals_extract(self, drawn, block_rows):
        ex, ms, res = drawn
        a, b = all_ordered_pairs(len(ms))
        with block_rows_set(block_rows):
            got = PairFeatures(ex, ms, res).gather(a, b)
        want = np.array([ex.extract(ms[i], ms[j], res) for i, j in zip(a, b)])
        assert np.array_equal(got, want)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(
        st.lists(st.dictionaries(st.sampled_from(TOKENS), st.integers(1, 4)), max_size=7),
        st.sampled_from((1, 2, 64)),
    )
    @example([], 2)
    @example([{}, {}, {}], 2)
    def test_cosine_matrix_equals_count_cosine(self, maps, block_rows):
        with block_rows_set(block_rows):
            got = cosine_matrix(maps)
        assert got.shape == (len(maps), len(maps))
        assert got.tolist() == [[count_cosine(a, b) for b in maps] for a in maps]

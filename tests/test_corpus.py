import json
import math
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hddcrp.corpus import (
    Corpus,
    Document,
    LexicalResources,
    Mention,
    doc_similarity,
    gold_partition,
    load_corpus,
    load_embeddings,
    load_synonyms,
    save_corpus,
)
from hddcrp.data import synthetic_corpus_path
from hddcrp.errors import InputError
from hddcrp.links import ClusterAssignment
from hddcrp.pairwise import build_training_pairs


def mention(mid, doc, k, head="w", span=None, context=(), arguments=None):
    return Mention(mid, doc, k, head, "NN", span or (head,), tuple(context), arguments or {})


class TestValidation:
    def test_head_must_occur_in_span(self):
        with pytest.raises(InputError):
            Mention("m", "d", 0, "x", "NN", ("y",), (), {})

    def test_unknown_argument_role_rejected(self):
        with pytest.raises(InputError):
            Mention("m", "d", 0, "x", "NN", ("x",), (), {"verb": (("v",),)})

    def test_order_indices_must_be_contiguous(self):
        with pytest.raises(InputError):
            Document("d", "ev", [mention("a", "d", 0), mention("b", "d", 2)])

    def test_duplicate_doc_id_rejected(self):
        d = Document("d", "ev", [mention("a", "d", 0)])
        d2 = Document("d", "ev", [mention("b", "d", 0)])
        with pytest.raises(InputError):
            Corpus((d, d2))

    def test_duplicate_mention_id_rejected(self):
        d1 = Document("d1", "ev", [mention("a", "d1", 0)])
        d2 = Document("d2", "ev", [mention("a", "d2", 0)])
        with pytest.raises(InputError):
            Corpus((d1, d2))

    def test_gold_chain_must_reference_known_mentions(self):
        d = Document("d", "ev", [mention("a", "d", 0)])
        with pytest.raises(InputError):
            Corpus((d,), ({"a", "ghost"},))

    def test_gold_chains_must_be_disjoint(self):
        d = Document("d", "ev", [mention(f"m{k}", "d", k) for k in range(3)])
        with pytest.raises(InputError):
            Corpus((d,), ({"m0", "m1"}, {"m1", "m2"}))

    def test_a_corpus_without_mentions_is_rejected(self):
        empty = Document("d", "ev", [])
        with pytest.raises(InputError, match="the corpus holds no mentions"):
            Corpus((empty,), ())
        # a duplicate doc_id is named before the missing mentions
        with pytest.raises(InputError, match="duplicate doc_id 'd'"):
            Corpus((empty, empty))


class TestCorpusAccess:
    def test_mentions_in_order_sorts_by_doc_then_index(self, synthetic_corpus):
        order = synthetic_corpus.mentions_in_order()
        keys = [(m.doc_id, m.order_index) for m in order]
        assert keys == sorted(keys)
        assert len(order) == 40

    def test_documents_in_any_order_give_the_canonical_layout(self, synthetic_corpus):
        shuffled = list(synthetic_corpus.documents)
        random.Random(0).shuffle(shuffled)
        assert shuffled != list(synthetic_corpus.documents)
        corpus = Corpus(tuple(shuffled), synthetic_corpus.gold)
        doc_ids = [d.doc_id for d in corpus.documents]
        assert doc_ids == sorted(doc_ids)
        keys = [(m.doc_id, m.order_index) for m in corpus.mentions_in_order()]
        assert keys == sorted(keys)
        assert corpus.mention_ids == tuple(m.mention_id for m in corpus.mentions_in_order())
        assert corpus.mention_ids == synthetic_corpus.mention_ids
        assert corpus.bounds == synthetic_corpus.bounds
        assert corpus.bounds[0] == 0 and corpus.bounds[-1] == 40
        bounds = zip(corpus.bounds, corpus.bounds[1:])
        for k, (d, (lo, hi)) in enumerate(zip(corpus.documents, bounds)):
            assert corpus.mention_ids[lo:hi] == tuple(m.mention_id for m in d.mentions)
            assert (corpus.doc_of()[lo:hi] == k).all()
        assert len(corpus.doc_of()) == 40

    def test_plain_documents_built_from_reversed_mentions_equal_the_loaded_ones(
        self, synthetic_corpus
    ):
        corpus = Corpus(tuple(
            Document(d.doc_id, d.seminal_event_id, d.mentions[::-1])
            for d in synthetic_corpus.documents
        ), synthetic_corpus.gold)
        assert corpus.mention_ids == synthetic_corpus.mention_ids
        for d, loaded in zip(corpus.documents, synthetic_corpus.documents):
            assert d == loaded
            assert d.tf_vector == loaded.tf_vector and d.tf_vector
        pairs = build_training_pairs(corpus, sigma=0.4)
        assert len(pairs) == 247
        assert np.array_equal(pairs, build_training_pairs(synthetic_corpus, sigma=0.4))

    def test_span_vocabulary_counts_distinct_span_lemmas(self, synthetic_corpus):
        vocab = synthetic_corpus.span_vocabulary()
        direct = set()
        for d in synthetic_corpus.documents:
            for m in d.mentions:
                direct.update(m.span_lemmas)
        assert vocab == sorted(direct)
        assert len(vocab) == 30

    def test_gold_partition_adds_singletons(self, synthetic_corpus):
        parts = gold_partition(synthetic_corpus).partition()
        assert sum(len(p) for p in parts) == 40
        sizes = sorted(len(p) for p in parts)
        assert sizes == [1] * 10 + [4, 4, 5, 5, 6, 6]

    def test_gold_partition_is_a_clustering_of_every_mention(self):
        d = Document("d", "ev", [mention(f"m{k}", "d", k) for k in range(4)])
        with_one = Corpus((d,), [["m2", "m0"], ["m3"]])
        assert with_one.gold == (frozenset({"m0", "m2"}), frozenset({"m3"}))
        gold = gold_partition(with_one)
        assert gold == ClusterAssignment(("m0", "m1", "m2", "m3"), (0, 1, 0, 2))
        # a one-mention chain and a mention outside every chain are alike
        assert gold == gold_partition(Corpus((d,), [{"m0", "m2"}]))

    def test_gold_partition_requires_gold(self):
        d = Document("d", "ev", [mention("a", "d", 0)])
        with pytest.raises(InputError):
            gold_partition(Corpus((d,)))


class TestRoundTrip:
    def test_save_then_load_preserves_corpus(self, synthetic_corpus, tmp_path):
        path = tmp_path / "copy.jsonl"
        save_corpus(synthetic_corpus, path)
        again = load_corpus(path)
        assert [d.doc_id for d in again.documents] == [
            d.doc_id for d in synthetic_corpus.documents
        ]
        for d, d2 in zip(synthetic_corpus.documents, again.documents):
            assert d.seminal_event_id == d2.seminal_event_id
            assert d.mentions == d2.mentions
        assert set(again.gold) == set(synthetic_corpus.gold)

    def test_save_is_byte_stable(self, synthetic_corpus, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(synthetic_corpus, a)
        save_corpus(load_corpus(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_load_reports_line_numbers(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        good = open(synthetic_corpus_path(), encoding="utf-8").readline()
        path.write_text(good + "{not json\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 2"):
            load_corpus(path)

    def test_gold_sidecar_file(self, synthetic_corpus, tmp_path):
        body = tmp_path / "corpus.jsonl"
        save_corpus(Corpus(synthetic_corpus.documents), body)
        gold = tmp_path / "gold.json"
        gold.write_text(
            json.dumps({"gold_chains": [sorted(c) for c in synthetic_corpus.gold]}),
            encoding="utf-8",
        )
        again = load_corpus(body, gold)
        assert set(again.gold) == set(synthetic_corpus.gold)


    def test_fixture_script_regenerates_the_bundled_files(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "generate_fixtures.py"
        subprocess.run([sys.executable, str(script), str(tmp_path)], check=True,
                       capture_output=True)
        bundled = synthetic_corpus_path().parent
        names = sorted(p.name for p in bundled.iterdir() if p.is_file())
        assert names == sorted(p.name for p in tmp_path.iterdir())
        for name in names:
            assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name


class TestResources:
    def test_embeddings_parse_and_dimensions(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 0.0\ndog 0.5 0.5\n", encoding="utf-8")
        emb = load_embeddings(path)
        assert set(emb) == {"cat", "dog"}
        assert np.allclose(emb["cat"], [1.0, 0.0])

    def test_mixed_dimensions_rejected(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("cat 1.0 0.0\ndog 0.5\n", encoding="utf-8")
        with pytest.raises(InputError):
            LexicalResources.load(path, None)

    def test_unknown_lemma_gets_zero_vector(self, resources):
        assert not resources.vector("zzz-unknown").any()
        assert resources.vector("bombing").shape == resources.vector("zzz-unknown").shape

    def test_synonym_set_includes_the_lemma_itself(self, tmp_path):
        path = tmp_path / "syn.txt"
        path.write_text("bombing\tblast,explosion\n", encoding="utf-8")
        syn = load_synonyms(path)
        res = LexicalResources(synonyms=syn)
        assert res.synonym_set("bombing") == {"bombing", "blast", "explosion"}
        assert res.synonym_set("quiet") == {"quiet"}

    def test_synonym_line_without_a_tab_is_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "syn.txt"
        path.write_text("bombing\tblast\n\nattack assault,raid\n", encoding="utf-8")
        with pytest.raises(InputError, match=re.escape(f"{path}: line 3: no TAB")):
            load_synonyms(path)

    def test_dimension_is_the_length_of_the_vectors(self):
        res = LexicalResources(embeddings={"a": np.ones(8), "b": np.zeros(8)})
        assert res.dimension == 8
        assert res.vector("unknown").shape == (8,)
        assert LexicalResources().dimension == 300
        with pytest.raises(TypeError):
            LexicalResources(embeddings={"a": np.ones(8)}, dimension=300)

    def test_constructor_rejects_mixed_dimensions(self):
        with pytest.raises(InputError, match="mixed dimensions"):
            LexicalResources(embeddings={"a": np.ones(8), "b": np.ones(3)})


class TestDocSimilarity:
    def test_hand_computed_cosine(self):
        d1 = Document("d1", "ev", [mention("a", "d1", 0, "x", ("x", "y"))])
        d2 = Document("d2", "ev", [mention("b", "d2", 0, "x", ("x", "z"))])
        # tf vectors {x:1, y:1} and {x:1, z:1}: cosine 1/2
        assert math.isclose(doc_similarity(d1, d2), 0.5, rel_tol=1e-12)

    def test_identical_documents_hit_the_cap(self, synthetic_corpus):
        d = synthetic_corpus.documents[0]
        assert doc_similarity(d, d) == 1.0

    def test_disjoint_vocabulary_scores_zero(self):
        d1 = Document("d1", "ev", [mention("a", "d1", 0, "x")])
        d2 = Document("d2", "ev", [mention("b", "d2", 0, "y")])
        assert doc_similarity(d1, d2) == 0.0

    def test_same_topic_documents_are_closer(self, synthetic_corpus):
        docs = {d.doc_id: d for d in synthetic_corpus.documents}
        same = doc_similarity(docs["doc01"], docs["doc02"])
        cross = doc_similarity(docs["doc01"], docs["doc03"])
        assert same > 0.4 > cross


import numpy as np
import pytest

from hddcrp.corpus import Corpus, Document, Mention
from hddcrp.errors import InputError
from hddcrp.likelihood import LikelihoodParams
from hddcrp.links import ClusterAssignment
from hddcrp.sampling import HddcrpState, SamplerConfig, build_priors
from reference_impls import components_reference


def link_state(doc_sizes):
    """An hddcrp state over documents of the given sizes, in canonical order."""
    documents = []
    for d, size in enumerate(doc_sizes):
        mentions = [
            Mention(f"d{d}-m{k}", f"d{d}", k, "x", "NN", ("x",), (), {}) for k in range(size)
        ]
        documents.append(Document(f"d{d}", "ev", mentions))
    corpus = Corpus(tuple(documents))
    config = SamplerConfig()
    priors = build_priors(corpus, config, uniform=True)
    return HddcrpState(corpus, config, priors, LikelihoodParams.for_corpus(corpus, 1e-7))


def clusters(doc_sizes, customer, table):
    """The state's partition with the given customer and table links."""
    state = link_state(doc_sizes)
    state.cl[:] = customer
    state.tl[:] = table
    return state._parts()


def random_link_state(rng, doc_sizes):
    """Random valid links: customers stay back within the doc, tables leave it."""
    doc_of = [d for d, size in enumerate(doc_sizes) for _ in range(size)]
    n = len(doc_of)
    starts = np.cumsum([0] + list(doc_sizes))
    customer = []
    for i in range(n):
        lo = starts[doc_of[i]]
        customer.append(int(rng.integers(lo, i + 1)))
    table = []
    for i in range(n):
        outside = [j for j in range(n) if doc_of[j] != doc_of[i]]
        table.append(int(rng.choice(outside + [i])))
    return doc_of, customer, table


class TestConnectivity:
    def test_clusters_match_union_find_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(2, 4))
            sizes = [int(rng.integers(1, 5)) for _ in range(k)]
            doc_of, customer, table = random_link_state(rng, sizes)
            n = len(doc_of)
            got = sorted(sorted(p) for p in clusters(sizes, customer, table))
            edges = [(i, j) for i, j in enumerate(customer)]
            # only table links of table heads (self-customer mentions) are active
            edges += [(i, table[i]) for i in range(n) if customer[i] == i]
            assert got == components_reference(n, edges)

    def test_non_head_table_links_never_affect_clusters(self):
        # mention 1 links back to 0, so its table link must be inert
        customer = [0, 0, 2]
        active = clusters([2, 1], customer, [0, 1, 2])
        assert active == clusters([2, 1], customer, [0, 2, 2])

    def test_table_link_of_head_merges_across_documents(self):
        customer = [0, 0, 2, 2]
        got = clusters([2, 2], customer, [2, 1, 2, 3])
        assert sorted(sorted(p) for p in got) == [[0, 1, 2, 3]]


class TestClusterAssignment:
    def test_labels_are_canonicalized_by_first_appearance(self):
        a = ClusterAssignment(["x", "y", "z"], [9, 4, 9])
        assert a.labels == (0, 1, 0)

    def test_same_partition_compares_equal_regardless_of_label_names(self):
        ids = ["a", "b", "c", "d"]
        one = ClusterAssignment(ids, [0, 1, 0, 2])
        two = ClusterAssignment(ids, ["p", "q", "p", "r"])
        assert one == two
        assert hash(one) == hash(two)

    def test_partition_round_trip(self):
        ids = ["a", "b", "c", "d", "e"]
        parts = [{"a", "c"}, {"b"}, {"d", "e"}]
        a = ClusterAssignment.from_index_partition(ids, [[ids.index(m) for m in p] for p in parts])
        assert a.partition() == [frozenset(p) for p in parts]
        assert a.n_clusters() == 3
        assert ClusterAssignment(ids, [a.as_mapping()[m] for m in ids]) == a

    def test_plain_construction_canonicalizes_the_labels(self):
        a = ClusterAssignment(("a", "b"), (5, 5))
        assert a == ClusterAssignment.from_index_partition(("a", "b"), [[0, 1]])
        assert a.labels == (0, 0) and a.n_clusters() == 1
        assert ClusterAssignment(["a", "b"], [7, 5]).mention_ids == ("a", "b")

    def test_labels_and_mention_ids_of_different_lengths_are_rejected(self):
        # zip would drop the unlabelled mentions, or the surplus labels
        with pytest.raises(InputError, match="1 labels for 3 mentions"):
            ClusterAssignment(("a", "b", "c"), (0,))
        with pytest.raises(InputError, match="2 labels for 1 mentions"):
            ClusterAssignment(["a"], [0, 0])

    def test_repeated_mention_ids_are_rejected(self):
        # a repeated id would sit in two clusters, and as_mapping would keep one
        with pytest.raises(InputError, match="mention id 'a' is repeated"):
            ClusterAssignment(("a", "a", "b"), (0, 1, 1))
        with pytest.raises(InputError, match="mention id 'b' is repeated"):
            ClusterAssignment(("c", "b", "a", "b", "a"), (0, 0, 0, 0, 0))

    def test_canonical_order_is_doc_then_index(self, synthetic_corpus):
        order = synthetic_corpus.mention_ids
        assert order[0] == "doc01-m0"
        assert len(order) == 40
        assert list(order) == [m.mention_id for m in synthetic_corpus.mentions_in_order()]

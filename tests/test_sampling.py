import concurrent.futures
import math
from collections import Counter
from concurrent.futures import Future

import numpy as np
import pytest

from hddcrp.corpus import Corpus, Document, Mention
from hddcrp.errors import InputError
from hddcrp import features, likelihood, pairwise, sampling
from hddcrp.likelihood import LikelihoodParams, lemma_bags
from hddcrp.links import ClusterAssignment, LinkGraph
from hddcrp.sampling import (
    DEFAULT_ALPHA_0,
    MAX_CHAINS,
    MODELS,
    Labels,
    SamplerConfig,
    TableCrpState,
    build_priors,
    crp_partition_log_prob,
    enumerate_exact_posterior,
    init_state,
    run_chains,
)
from reference_impls import (
    REBUILD_STATES,
    crp_eppf,
    dirichlet_marginal_reference,
    enumerate_flat_posterior,
    enumerate_star_posterior,
    label_draw_reference,
    label_log_weights_reference,
    priors_reference,
    scored_pairs_reference,
    total_variation,
)

UNIFORM = dict(uniform=True)


class FixedRng:
    """A generator whose every uniform draw is r."""

    def __init__(self, r):
        self.r = r

    def random(self):
        return self.r


def single_doc_corpus(n, head="w"):
    mentions = [Mention(f"d-m{k}", "d", k, head, "NN", (head,), (), {}) for k in range(n)]
    return Corpus((Document("d", "ev", mentions),))


def empirical_distribution(corpus, config, priors, sweeps, discard, seed):
    rng = np.random.default_rng(seed)
    state = init_state(corpus, config, rng, priors=priors)
    counts = Counter()
    for t in range(sweeps):
        state.sweep(rng)
        if t >= discard:
            counts[frozenset(state.clustering().partition())] += 1
    total = sum(counts.values())
    return {k: v / total for k, v in counts.items()}


def loglik_fn(corpus, concentration):
    params = LikelihoodParams.for_corpus(corpus, concentration)
    order = corpus.mentions_in_order()

    def loglik(member_indices):
        counts = {}
        for k in member_indices:
            for tok in order[k].span_lemmas:
                counts[tok] = counts.get(tok, 0) + 1
        return dirichlet_marginal_reference(counts, params.vocab_size, concentration)

    return loglik


def indices_to_ids(posterior, corpus):
    ids = [m.mention_id for m in corpus.mentions_in_order()]
    out = {}
    for clusters, p in posterior.items():
        key = frozenset(frozenset(ids[k] for k in part) for part in clusters)
        out[key] = p
    return out


# u = 0.0, 39 interior points and the largest double below 1
UNIFORM_GRID = [0.0, *np.linspace(0.0, 1.0, 41)[1:-1].tolist(), 1.0 - 2.0**-53]


def seated_labels(groups, moving, alpha_0=1.0, concentration=1e-3):
    """A Labels seating one label per group, each group a list of one-mention
    tables given by their lemmas, with a label dropped after the first
    group, and take() of a table of one mention with the lemmas moving."""
    lemma_lists = [t for group in groups for t in group] + [["dropped"], moving]
    counts, _, bag_of = lemma_bags(lemma_lists)
    vocab = {tok for lemmas in lemma_lists for tok in lemmas}
    labels = Labels(counts, LikelihoodParams(concentration, len(vocab)), alpha_0)
    tables = iter(range(len(lemma_lists)))
    for g, group in enumerate(groups):
        k = labels.fresh()
        for _ in group:
            table = {next(tables)}
            labels.move(table, bag_of(table), k, 1, True)
        if g == 0:
            dropped = {len(lemma_lists) - 2}
            k = labels.fresh()
            labels.move(dropped, bag_of(dropped), k, 1, True)
            labels.move(dropped, bag_of(dropped), k, -1, True)
    table = {len(lemma_lists) - 1}
    labels.move(table, bag_of(table), labels.fresh(), 1, True)
    return labels, labels.take(table, bag_of(table), True)


class TestConfig:
    def test_alpha_0_defaults_depend_on_the_model(self):
        assert SamplerConfig(model="hddcrp").resolved_alpha_0 == 0.001
        assert SamplerConfig(model="hddcrp_star").resolved_alpha_0 == 1.0
        assert SamplerConfig(model="ddcrp_flat").resolved_alpha_0 == 0.1
        assert SamplerConfig(model="hdp_lex").resolved_alpha_0 == 1.0
        assert SamplerConfig(model="hddcrp", alpha_0=2.5).resolved_alpha_0 == 2.5
        assert set(DEFAULT_ALPHA_0) == set(MODELS)

    def test_invalid_settings_rejected(self):
        with pytest.raises(InputError):
            SamplerConfig(model="bogus")
        with pytest.raises(InputError):
            SamplerConfig(alpha_d=0.0)
        with pytest.raises(InputError):
            SamplerConfig(iterations=0)
        with pytest.raises(InputError):
            SamplerConfig(concentration=-1.0)
        with pytest.raises(InputError):
            SamplerConfig(seed=-1)
        for chains in (MAX_CHAINS + 1, 10**30):
            with pytest.raises(InputError, match="chains must be at most"):
                SamplerConfig(chains=chains)
        assert SamplerConfig(chains=MAX_CHAINS).chains == MAX_CHAINS
        for bad in (math.nan, math.inf, -math.inf):
            for name in ("alpha_d", "alpha_0", "concentration"):
                with pytest.raises(InputError):
                    SamplerConfig(**{name: bad})


class TestPriors:
    def test_hddcrp_links_stay_in_document_and_tables_leave_it(
        self, synthetic_corpus, resources, trained_model
    ):
        config = SamplerConfig(model="hddcrp")
        priors = build_priors(synthetic_corpus, config, trained_model, resources)
        order = synthetic_corpus.mentions_in_order()
        for i, cands in enumerate(priors.customer):
            assert cands[0] == (i, config.alpha_d)
            for j, w in cands[1:]:
                assert w > 0 and j < i and order[j].doc_id == order[i].doc_id
        for i, cands in enumerate(priors.table):
            assert cands[0] == (i, config.resolved_alpha_0)
            for j, w in cands[1:]:
                assert w > 0 and order[j].doc_id != order[i].doc_id

    def test_hdp_lex_uses_constant_within_weights_and_no_tables(self, synthetic_corpus):
        priors = build_priors(synthetic_corpus, SamplerConfig(model="hdp_lex"))
        assert priors.table is None
        order = synthetic_corpus.mentions_in_order()
        for i, cands in enumerate(priors.customer):
            doc = order[i].doc_id
            earlier = [j for j in range(i) if order[j].doc_id == doc]
            assert {j for j, _ in cands[1:]} == set(earlier)
            assert all(w == 1.0 for _, w in cands[1:])

    def test_ddcrp_flat_links_cover_the_whole_corpus(
        self, synthetic_corpus, resources, trained_model
    ):
        priors = build_priors(
            synthetic_corpus, SamplerConfig(model="ddcrp_flat"), trained_model, resources
        )
        assert priors.table is None
        targets = {j for cands in priors.customer for j, _ in cands}
        docs = {synthetic_corpus.mentions_in_order()[j].doc_id for j in targets}
        assert len(docs) == len(synthetic_corpus.documents)

    def test_distance_models_are_required_when_documents_interact(self, synthetic_corpus):
        with pytest.raises(InputError):
            build_priors(synthetic_corpus, SamplerConfig(model="hddcrp"))

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("corpus_name", ["tiny_corpus", "synthetic_corpus", "single_doc"])
    def test_uniform_priors_equal_the_per_pair_reference(self, request, model, corpus_name):
        if corpus_name == "single_doc":
            corpus = single_doc_corpus(4)
        else:
            corpus = request.getfixturevalue(corpus_name)
        config = SamplerConfig(model=model)
        priors = build_priors(corpus, config, uniform=True)
        assert (priors.customer, priors.table) == priors_reference(corpus, config, uniform=True)

    @pytest.mark.parametrize(
        "model, uniform",
        [("hdp_lex", True), ("hddcrp_star", True), ("hddcrp_star", False),
         ("hddcrp", False), ("ddcrp_flat", True)],
    )
    def test_priors_walk_each_linkable_pair_once(
        self, synthetic_corpus, resources, trained_model, monkeypatch, model, uniform
    ):
        made = []
        walk = features.pair_blocks
        scored = pairwise.PairwiseModel.scored_pairs

        def counted(bounds, across):
            for rows, cols, r, c in walk(bounds, across):
                made.extend(zip((rows.start + r).tolist(), (cols.start + c).tolist()))
                yield rows, cols, r, c

        def kept(self, *args):
            for i, j, sim in scored(self, *args):
                made.extend(zip(i.tolist(), j.tolist()))
                yield i, j, sim

        monkeypatch.setattr(sampling, "pair_blocks", counted)
        monkeypatch.setattr(pairwise.PairwiseModel, "scored_pairs", kept)
        build_priors(synthetic_corpus, SamplerConfig(model=model), trained_model, resources,
                     uniform=uniform)
        doc_of = synthetic_corpus.doc_of()
        n = len(doc_of)
        across = model in ("hddcrp", "ddcrp_flat")
        if not uniform:
            # trained priors walk only the pairs the reference walk keeps
            floor = trained_model.truncation_threshold
            want = scored_pairs_reference(
                trained_model, synthetic_corpus, resources, floor, floor if across else None
            )
            assert made == [(a, b) for i, j, _ in want for a, b in zip(i.tolist(), j.tolist())]
        elif across:
            assert len(made) == n * (n - 1) // 2
        else:
            sizes = [len(d.mentions) for d in synthetic_corpus.documents]
            assert len(made) == sum(k * (k - 1) // 2 for k in sizes)
        assert all(across or doc_of[i] == doc_of[j] for i, j in made)
        assert len(set(made)) == len(made)

    def test_single_document_hddcrp_needs_no_distance_model(self):
        corpus = single_doc_corpus(3)
        priors = build_priors(corpus, SamplerConfig(model="hddcrp"), **UNIFORM)
        assert all(cands == ((i, 0.001),) for i, cands in enumerate(priors.table))


class TestCrpMachinery:
    def test_partition_log_prob_matches_the_eppf(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))]
            alpha = float(rng.uniform(0.1, 3.0))
            got = crp_partition_log_prob(sizes, alpha)
            assert math.isclose(got, math.log(crp_eppf(sizes, alpha)), rel_tol=1e-10)

    def test_draw_takes_the_first_partial_sum_that_reaches_u(self):
        rng = np.random.default_rng(62)
        for _ in range(300):
            log_weights = rng.normal(0.0, 3.0, int(rng.integers(1, 12))).tolist()
            # weights that vanish after the max shift give runs of equal partial sums
            log_weights += [-800.0] * int(rng.integers(0, 3))
            rng.shuffle(log_weights)
            top = max(log_weights)
            probs = [math.exp(x - top) for x in log_weights]
            total = 0.0
            for p in probs:
                total += p
            for r in (0.0, float(rng.random()), 1.0 - 2.0**-53):
                u, acc = r * total, 0.0
                for want, p in enumerate(probs):
                    acc += p
                    if u <= acc:
                        break
                assert sampling._draw(FixedRng(r), log_weights) == want

    @pytest.mark.parametrize("m", [0, 1, 7])
    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_batched_uniforms_are_the_scalar_stream(self, m, extra):
        rng = np.random.default_rng(63)
        ref_rng = np.random.default_rng(63)
        draws = sampling._Uniforms(rng, m)
        got = [draws.random() for _ in range(m + extra)]
        assert got == [ref_rng.random() for _ in range(m + extra)]
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_three_mention_reduction_recovers_crp_exactly(self):
        corpus = single_doc_corpus(3)
        config = SamplerConfig(model="hddcrp", alpha_d=1.0, flat_likelihood=True)
        priors = build_priors(corpus, config, **UNIFORM)
        posterior = enumerate_exact_posterior(corpus, config, priors=priors)
        by_partition = {frozenset(a.partition()): p for a, p in posterior.items()}
        ids = ["d-m0", "d-m1", "d-m2"]
        singletons = frozenset(frozenset({m}) for m in ids)
        together = frozenset({frozenset(ids)})
        assert math.isclose(by_partition[singletons], 1 / 6, rel_tol=1e-12)
        assert math.isclose(by_partition[together], 1 / 3, rel_tol=1e-12)
        assert math.isclose(sum(by_partition.values()), 1.0, rel_tol=1e-12)


class TestExactPosterior:
    def test_probabilities_sum_to_one(self, tiny_corpus):
        config = SamplerConfig(model="hddcrp")
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        posterior = enumerate_exact_posterior(tiny_corpus, config, priors=priors)
        assert math.isclose(sum(posterior.values()), 1.0, rel_tol=1e-9)
        assert all(p >= 0 for p in posterior.values())

    def test_the_map_clustering_recovers_the_gold_chains(self, tiny_corpus):
        config = SamplerConfig(model="hddcrp")
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        posterior = enumerate_exact_posterior(tiny_corpus, config, priors=priors)
        best = max(posterior, key=posterior.get)
        from hddcrp.corpus import gold_partition

        assert frozenset(best.partition()) == frozenset(gold_partition(tiny_corpus).partition())

    def test_large_corpora_are_rejected(self, synthetic_corpus):
        config = SamplerConfig(model="hddcrp")
        with pytest.raises(InputError):
            enumerate_exact_posterior(synthetic_corpus, config, priors=None)

    def test_only_the_two_level_link_model_is_supported(self, tiny_corpus):
        config = SamplerConfig(model="hdp_lex")
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        with pytest.raises(InputError):
            enumerate_exact_posterior(tiny_corpus, config, priors=priors)


class TestSamplerAgreement:
    def test_hddcrp_sweeps_match_the_enumerated_posterior(self, tiny_corpus):
        config = SamplerConfig(model="hddcrp", concentration=0.5)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        exact = enumerate_exact_posterior(tiny_corpus, config, priors=priors)
        exact = {frozenset(a.partition()): p for a, p in exact.items()}
        empirical = empirical_distribution(tiny_corpus, config, priors, 12000, 500, seed=62)
        assert total_variation(exact, empirical) < 0.1

    def test_hddcrp_star_matches_an_independent_enumeration(self, tiny_corpus):
        config = SamplerConfig(model="hddcrp_star", concentration=0.5, alpha_0=1.0)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        order = tiny_corpus.mentions_in_order()
        doc_ids = sorted({m.doc_id for m in order})
        doc_of = [doc_ids.index(m.doc_id) for m in order]
        exact = enumerate_star_posterior(
            len(order),
            doc_of,
            within_weight=lambda i, j: 1.0,
            alpha_d=config.alpha_d,
            alpha_0=1.0,
            cluster_loglik=loglik_fn(tiny_corpus, 0.5),
        )
        exact = indices_to_ids(exact, tiny_corpus)
        empirical = empirical_distribution(tiny_corpus, config, priors, 12000, 500, seed=63)
        assert total_variation(exact, empirical) < 0.1

    def test_ddcrp_flat_matches_an_independent_enumeration(self, tiny_corpus):
        config = SamplerConfig(model="ddcrp_flat", concentration=0.5, alpha_0=0.1)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        n = len(tiny_corpus.mentions_in_order())
        exact = enumerate_flat_posterior(
            n,
            weight=lambda i, j: 0.1 if i == j else 1.0,
            cluster_loglik=loglik_fn(tiny_corpus, 0.5),
        )
        exact = indices_to_ids(exact, tiny_corpus)
        empirical = empirical_distribution(tiny_corpus, config, priors, 12000, 500, seed=64)
        assert total_variation(exact, empirical) < 0.1


class TestDebugMode:
    def test_incremental_ratios_survive_from_scratch_checks(self, tiny_corpus):
        for model in MODELS:
            config = SamplerConfig(model=model, concentration=0.5, debug=True)
            priors = build_priors(tiny_corpus, config, **UNIFORM)
            rng = np.random.default_rng(65)
            state = init_state(tiny_corpus, config, rng, priors=priors)
            for _ in range(100):
                state.sweep(rng)


    @pytest.fixture
    def ratios_off_by_a_millionth(self, monkeypatch):
        # every merge and split ratio adds the merge normaliser, whether the
        # likelihood module computes it or the labels' memo row holds it
        exact = likelihood.merge_normaliser_raw
        for module in (likelihood, sampling):
            monkeypatch.setattr(module, "merge_normaliser_raw", lambda *args: exact(*args) + 1e-6)

    @pytest.mark.parametrize("model", MODELS)
    def test_from_scratch_check_catches_wrong_ratios_in_sweeps(
        self, tiny_corpus, model, ratios_off_by_a_millionth
    ):
        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(65)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        with pytest.raises(AssertionError, match="from-scratch"):
            for _ in range(10):
                state.sweep(rng)

    @pytest.mark.parametrize("model", ["hddcrp_star", "hdp_lex"])
    def test_from_scratch_check_catches_wrong_ratios_in_label_moves(
        self, tiny_corpus, model, ratios_off_by_a_millionth
    ):
        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        first = init_state(tiny_corpus, config, np.random.default_rng(65), priors=priors)
        heads = first._heads()
        assert len(heads) >= 2
        for head in heads:
            rng = np.random.default_rng(65)
            state = init_state(tiny_corpus, config, rng, priors=priors)
            with pytest.raises(AssertionError, match="from-scratch"):
                state.sample_table_label(head, rng)


def assert_matches_rebuild_sampler(corpus, resources, trained_model, model, randomized_scan):
    config = SamplerConfig(model=model, seed=71, randomized_scan=randomized_scan)
    priors = build_priors(corpus, config, trained_model, resources)
    params = LikelihoodParams.for_corpus(corpus, config.concentration)
    rng = np.random.default_rng(71)
    ref_rng = np.random.default_rng(71)
    state = init_state(corpus, config, rng, priors=priors, params=params)
    ref = REBUILD_STATES[model](corpus, config, priors, params)
    ref.init_links(ref_rng)
    for _ in range(20):
        state.sweep(rng)
        ref.sweep(ref_rng)
        # a batch of uniforms drawn ahead of its use would leave rng ahead
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert state.cl == ref.cl
        if model == "hddcrp":
            assert state.tl == ref.tl
        elif model != "ddcrp_flat":
            assert {h: state.labels.of[h] for h in state._heads()} == ref.labels
        assert state.joint_log_score() == ref.joint_log_score()


def graph_snapshot(graph):
    """Each component's member set and bag object, with copies of their contents."""
    return (
        list(graph.comp),
        {k: (s, set(s)) for k, s in graph.members.items()},
        {k: (b, (dict(b[0]), b[1])) for k, b in graph.bags.items()},
    )


def assert_graph_untouched(graph, snapshot):
    comp, members, bags = snapshot
    assert graph.comp == comp
    assert graph.members.keys() == members.keys() and graph.bags.keys() == bags.keys()
    for k, (s, copy) in members.items():
        assert graph.members[k] is s and s == copy
    for k, (b, copy) in bags.items():
        assert graph.bags[k] is b and (b[0], b[1]) == copy


class TestLinkGraphCore:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("randomized_scan", [False, True])
    def test_moves_match_samplers_that_rebuild_every_move(
        self, synthetic_corpus, resources, trained_model, model, randomized_scan
    ):
        assert_matches_rebuild_sampler(
            synthetic_corpus, resources, trained_model, model, randomized_scan
        )

    @pytest.mark.parametrize("model", MODELS)
    def test_a_move_that_keeps_the_partition_leaves_the_components_untouched(
        self, synthetic_corpus, model
    ):
        config = SamplerConfig(model=model)
        priors = build_priors(synthetic_corpus, config, **UNIFORM)
        rng = np.random.default_rng(77)
        state = init_state(synthetic_corpus, config, rng, priors=priors)
        moves = [state.sample_customer_link]
        if model == "hddcrp":
            moves.append(state.sample_table_link)
        graph = state.graph
        kept = 0
        for move in moves:
            for i in range(state.n):
                # the graph's components, rebuilt from the edges
                parts = sampling._StateBase._parts(state)
                snapshot = graph_snapshot(graph)
                move(i, rng)
                if sampling._StateBase._parts(state) != parts:
                    continue
                kept += 1
                assert_graph_untouched(graph, snapshot)
        assert kept > state.n // 2

    @pytest.mark.parametrize("model", ["hddcrp_star", "hdp_lex"])
    @pytest.mark.parametrize("randomized_scan", [False, True])
    def test_moves_match_samplers_that_rebuild_every_move_over_many_labels(
        self, replicated_corpus, resources, trained_model, model, randomized_scan
    ):
        assert_matches_rebuild_sampler(
            replicated_corpus, resources, trained_model, model, randomized_scan
        )

    def test_merge_ratios_run_only_for_labels_that_share_a_lemma(
        self, replicated_corpus, monkeypatch
    ):
        config = SamplerConfig(model="hdp_lex", seed=73)
        priors = build_priors(replicated_corpus, config)
        rng = np.random.default_rng(73)
        state = init_state(replicated_corpus, config, rng, priors=priors)
        # (moving table's lemmas, label's bag object, label's lemmas) per
        # merge_ratio_from call, copied at call time: the live bags change later
        ratio_calls = []
        moves = []  # (labels sharing a lemma with the moving table, labels, first call)
        merge_ratio_from = sampling.merge_ratio_from
        take = Labels.take

        def counting_ratio(normaliser, counts_a, counts_b, params):
            ratio_calls.append((set(counts_a), id(counts_b), set(counts_b)))
            return merge_ratio_from(normaliser, counts_a, counts_b, params)

        def recording_take(labels, table, bag, headed):
            # unseating the table calls no merge ratio, so the table's calls come after first
            first = len(ratio_calls)
            scored = take(labels, table, bag, headed)
            lemmas = bag[0].keys()
            groups = {}
            for m, k in enumerate(labels.of):
                groups.setdefault(k, []).append(m)
            sharing = {
                k
                for k in labels.key_of
                if any(lemmas & state.span_counts[m].keys() for m in groups[k])
            }
            moves.append((sharing, len(labels.key_of), first))
            return scored

        monkeypatch.setattr(sampling, "merge_ratio_from", counting_ratio)
        monkeypatch.setattr(Labels, "take", recording_take)
        for _ in range(3):
            state.sweep(rng)
        starts = [first for _, _, first in moves] + [len(ratio_calls)]
        for (sharing, _, _), lo, hi in zip(moves, starts, starts[1:]):
            calls = ratio_calls[lo:hi]
            assert len(calls) == len(sharing)
            assert len({label_bag for _, label_bag, _ in calls}) == len(calls)
            assert all(table_lemmas & label_lemmas for table_lemmas, _, label_lemmas in calls)
        # most labels sit in other copies of the corpus and share no lemma
        assert 2 * len(ratio_calls) < sum(n_labels for _, n_labels, _ in moves)

    def test_new_table_marginals_take_one_term_per_key(self, replicated_corpus, monkeypatch):
        config = SamplerConfig(model="hdp_lex", seed=75)
        priors = build_priors(replicated_corpus, config)
        rng = np.random.default_rng(75)
        state = init_state(replicated_corpus, config, rng, priors=priors)
        sizes = []  # (terms, labels sharing a lemma, keys, labels) per marginal
        new_table_terms = Labels.new_table_terms

        def recording_terms(labels, shared, weights, log_denom):
            terms = new_table_terms(labels, shared, weights, log_denom)
            sizes.append((len(terms), len(shared), len(labels.keys), len(labels.key_of)))
            return terms

        monkeypatch.setattr(Labels, "new_table_terms", recording_terms)
        for _ in range(3):
            state.sweep(rng)
        # a move over the lone self candidate proposes nothing, so builds no terms
        moves = sum(len(c) > 1 for c in state.cand_c)
        assert moves < state.n
        assert len(sizes) == 3 * moves
        assert all(terms <= 1 + shared + keys for terms, shared, keys, _ in sizes)
        # most labels share no lemma and fall into a few keys
        assert 2 * sum(s[0] for s in sizes) < sum(s[3] for s in sizes)

    def test_label_draws_match_the_per_label_weights(self, replicated_corpus):
        config = SamplerConfig(model="hdp_lex", seed=78)
        priors = build_priors(replicated_corpus, config)
        rng = np.random.default_rng(78)
        state = init_state(replicated_corpus, config, rng, priors=priors)
        state.sweep(rng)
        grid = UNIFORM_GRID
        seen = Counter()
        labels = state.labels
        for head in state._heads():
            table, bag = state.graph.component(head)
            label = labels.of[head]
            shared, weights = labels.take(table, bag, True)
            order, log_weights = label_log_weights_reference(labels, shared, weights)
            seen["shared"] += bool(shared)
            seen["first shared"] += order[0] in shared
            seen["shared key"] += any(labels.keys[labels.key_of[k]] > 1 for k in shared)
            for u in grid:
                new = labels.next_label
                want = (order + [new])[sampling._draw(FixedRng(u), log_weights)]
                assert labels.draw(FixedRng(u), shared, weights) == want
                labels.next_label = new
            labels.move(table, bag, label, 1, True)
        assert min(seen.values()) > 0 and max(labels.keys.values()) > 1

    @pytest.mark.parametrize(
        "case, groups, moving, alpha_0",
        [
            ("no shared label", [[["a"]], [["b"], ["b"]], [["c"]], [["d", "d"]]], ["z"], 1.0),
            ("key all shared", [[["a"]], [["c"], ["c"]], [["a"]], [["b", "b"]]], ["a"], 1.0),
            ("shared heaviest", [[["b"]], [["a", "a", "a"]], [["c"], ["c"]]], ["a", "a"], 0.01),
            ("all shared", [[["a"]], [["a", "b"]], [["a"], ["a"]]], ["a"], 1.0),
            ("single label", [[["a"]]], ["z"], 1.0),
        ],
    )
    def test_label_draws_match_the_per_label_reference(self, case, groups, moving, alpha_0):
        labels, (shared, weights) = seated_labels(groups, moving, alpha_0)
        own = [labels._logs[labels.key_table[labels.key_of[k]][0]] + d for k, d in shared.items()]
        unshared = [weights[labels.key_of[k]] for k in labels.key_of if k not in shared]
        if case == "no shared label":
            assert not shared and len(labels.keys) < len(labels.key_of)
        elif case == "key all shared":
            taken = Counter(labels.key_of[k] for k in shared)
            assert unshared and any(taken[key] == m for key, m in labels.keys.items())
        elif case == "shared heaviest":
            assert max(own) > max(unshared + [labels.log_alpha_0])
        elif case == "all shared":
            assert len(shared) == len(labels.key_of) > 1
        else:
            assert len(labels.key_of) == 1
        # the grid, and u on each side of every partial sum's share of the
        # total, where a partial sum rounded otherwise would pick another label
        _, log_weights = label_log_weights_reference(labels, shared, weights)
        acc = sampling._partial_sums(log_weights)
        edges = [x / acc[-1] for x in acc[:-1]]
        grid = UNIFORM_GRID + [
            v for e in edges for v in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0)) if v < 1
        ]
        picks = set()
        for u in grid:
            new = labels.next_label
            want = label_draw_reference(labels, FixedRng(u), shared, weights)
            got = labels.draw(FixedRng(u), shared, weights)
            assert got == want
            picks.add(got)
            labels.next_label = new
        assert len(picks) == len(labels.key_of) + 1

    def test_a_zero_uniform_picks_a_leading_label_of_zero_weight_as_the_reference_does(self):
        labels, (shared, weights) = seated_labels([[["a", "a"]], [["b"], ["b"]], [["c"]]], ["z"])
        first = min(labels.key_of)
        assert not shared and list(labels.keys.values()) == [1, 1, 1]
        # the first label's key alone weighs exp(-1000 - top), which underflows to 0.0
        weights = {**weights, labels.key_of[first]: -1000.0}
        for u, want in ((0.0, first), (2.0**-1074, sorted(labels.key_of)[1])):
            new = labels.next_label
            assert label_draw_reference(labels, FixedRng(u), shared, weights) == want
            assert labels.draw(FixedRng(u), shared, weights) == want
            labels.next_label = new

    @pytest.mark.parametrize("model", ["hddcrp_star", "hdp_lex"])
    def test_debug_mode_catches_labels_out_of_order(self, tiny_corpus, model, monkeypatch):
        move = Labels.move

        def move_reinserting_the_label(labels, table, bag, k, step, headed):
            # a seated label goes to the end of key_of, out of ascending order
            move(labels, table, bag, k, step, headed)
            if step > 0:
                labels.key_of[k] = labels.key_of.pop(k)

        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(72)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        monkeypatch.setattr(Labels, "move", move_reinserting_the_label)
        with pytest.raises(AssertionError, match="ascending order"):
            for _ in range(10):
                state.sweep(rng)

    @pytest.mark.parametrize("model", ["hddcrp_star", "hdp_lex"])
    def test_debug_mode_catches_a_stale_memoised_weight(self, tiny_corpus, model):
        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(72)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        for _ in range(3):
            state.sweep(rng)
        labels = state.labels
        # a key no label has at the moment: no move reads its weight until it comes back
        total, key = next(
            (total, key)
            for total, weights in labels._weights.items()
            for key in weights
            if key not in labels.keys
        )
        labels._weights[total][key] += 1e-9
        with pytest.raises(AssertionError, match="memoised weight"):
            state.sweep(rng)

    @pytest.mark.parametrize("model", ["hddcrp_star", "hdp_lex"])
    def test_grouped_marginals_match_the_per_label_sum_in_debug_mode(
        self, synthetic_corpus, model
    ):
        config = SamplerConfig(model=model, debug=True)
        priors = build_priors(synthetic_corpus, config, **UNIFORM)
        rng = np.random.default_rng(76)
        state = init_state(synthetic_corpus, config, rng, priors=priors)
        for _ in range(2):
            state.sweep(rng)
        assert any(m > 1 for m in state.labels.keys.values())

    @pytest.mark.parametrize("model", ["hddcrp_star", "hdp_lex"])
    def test_debug_mode_catches_a_wrong_grouped_marginal(self, tiny_corpus, model, monkeypatch):
        new_table_terms = Labels.new_table_terms

        def terms_off_by_a_billionth(labels, *args):
            return [t + 1e-9 for t in new_table_terms(labels, *args)]

        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(72)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        monkeypatch.setattr(Labels, "new_table_terms", terms_off_by_a_billionth)
        with pytest.raises(AssertionError, match="grouped marginal"):
            state.sweep(rng)

    @pytest.mark.parametrize("model", ["hddcrp_star", "hdp_lex"])
    def test_debug_mode_catches_miscounted_tables(self, tiny_corpus, model, monkeypatch):
        move = Labels.move

        def move_and_miscount(labels, table, bag, k, step, headed):
            move(labels, table, bag, k, step, headed)
            if step > 0 and headed:
                t, total = labels.key_table[labels.key_of[k]]
                labels.key_of[k] = labels.key_ids.setdefault((t + 1, total), len(labels.key_table))
                if labels.key_of[k] == len(labels.key_table):
                    labels.key_table.append((t + 1, total))

        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(72)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        monkeypatch.setattr(Labels, "move", move_and_miscount)
        with pytest.raises(AssertionError, match="table counts of labels differ"):
            state.sweep(rng)

    @pytest.mark.parametrize("model", ["hddcrp_star", "hdp_lex"])
    def test_debug_mode_catches_stale_keys(self, tiny_corpus, model, monkeypatch):
        move = Labels.move

        def move_leaving_keys_stale(labels, table, bag, k, step, headed):
            keys = dict(labels.keys)
            move(labels, table, bag, k, step, headed)
            if step > 0:
                labels.keys = keys

        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(72)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        monkeypatch.setattr(Labels, "move", move_leaving_keys_stale)
        with pytest.raises(AssertionError, match="keys differ"):
            state.sweep(rng)

    @pytest.mark.parametrize("model", ["hddcrp_star", "hdp_lex"])
    def test_debug_mode_catches_a_stale_label_key(self, tiny_corpus, model, monkeypatch):
        move = Labels.move

        def move_leaving_a_stale_total(labels, table, bag, k, step, headed):
            before = dict(labels.key_of)
            move(labels, table, bag, k, step, headed)
            # keep the table count right, so that only the lemma total goes stale
            if step > 0 and k in before:
                old, new = labels.key_table[before[k]], labels.key_table[labels.key_of[k]]
                if old[0] == new[0]:
                    labels.key_of[k] = before[k]

        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(72)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        monkeypatch.setattr(Labels, "move", move_leaving_a_stale_total)
        with pytest.raises(AssertionError, match="label -> key map differs"):
            for _ in range(10):
                state.sweep(rng)

    @pytest.mark.parametrize("model", ["hddcrp_star", "hdp_lex"])
    def test_debug_mode_catches_a_stale_key_id(self, tiny_corpus, model, monkeypatch):
        move = Labels.move

        def move_forgetting_the_key_ids(labels, table, bag, k, step, headed):
            # each key seated from here on gets a fresh id, so a label seated
            # earlier with the same key keeps a stale one
            labels.key_ids.clear()
            move(labels, table, bag, k, step, headed)

        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(72)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        monkeypatch.setattr(Labels, "move", move_forgetting_the_key_ids)
        with pytest.raises(AssertionError, match="key ids and the id -> key table disagree"):
            state.sweep(rng)

    @pytest.mark.parametrize("model", MODELS)
    def test_debug_mode_catches_components_left_unmerged(
        self, tiny_corpus, model, monkeypatch
    ):
        move = LinkGraph.move

        def move_without_merging(graph, i, old, new, side, side_bag):
            if graph.comp[i] == graph.comp[new]:
                move(graph, i, old, new, side, side_bag)
                return
            # the new edge joins two components: update the edges only
            if old != i:
                graph.inbound[old].remove(i)
            graph.inbound[new].add(i)

        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(72)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        monkeypatch.setattr(LinkGraph, "move", move_without_merging)
        with pytest.raises(AssertionError, match="component"):
            for _ in range(10):
                state.sweep(rng)

    @pytest.mark.parametrize("model", MODELS)
    def test_debug_mode_catches_a_bag_left_unmerged(self, tiny_corpus, model, monkeypatch):
        move = LinkGraph.move

        def move_without_merging_bags(graph, *args):
            bags = graph.bags
            before = {k: (dict(counts), total) for k, (counts, total) in bags.items()}
            move(graph, *args)
            for k in bags.keys() & before.keys():
                bags[k] = before[k]

        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(72)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        monkeypatch.setattr(LinkGraph, "move", move_without_merging_bags)
        with pytest.raises(AssertionError, match="lemma bag of component .* differs"):
            for _ in range(10):
                state.sweep(rng)

    @pytest.mark.parametrize("model", MODELS)
    def test_debug_mode_catches_zero_counts_left_in_a_bag(
        self, tiny_corpus, model, monkeypatch
    ):
        move = LinkGraph.move

        def move_keeping_zeros(graph, *args):
            # a lemma whose count a move takes to 0 stays in the bag with count 0
            before = {k: set(counts) for k, (counts, _) in graph.bags.items()}
            move(graph, *args)
            for k in graph.bags.keys() & before.keys():
                counts = graph.bags[k][0]
                for tok in before[k] - counts.keys():
                    counts[tok] = 0

        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(72)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        monkeypatch.setattr(LinkGraph, "move", move_keeping_zeros)
        with pytest.raises(AssertionError, match="lemma bag of .* differs"):
            for _ in range(30):
                state.sweep(rng)

    @pytest.mark.parametrize("model", ["hddcrp_star", "hdp_lex"])
    def test_debug_mode_catches_stale_label_members(self, tiny_corpus, model, monkeypatch):
        place = TableCrpState._place

        def place_leaving_a_stale_label(state, i, table, bag, target, scored, rng):
            place(state, i, table, bag, target, scored, rng)
            non_heads = [m for m in table if state.cl[m] != m]
            if non_heads:
                state.labels.of[non_heads[0]] = state.labels.next_label

        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(72)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        monkeypatch.setattr(TableCrpState, "_place", place_leaving_a_stale_label)
        with pytest.raises(AssertionError, match="are stale"):
            state.sweep(rng)

    @pytest.mark.parametrize("model", ["hddcrp_star", "hdp_lex"])
    def test_debug_mode_catches_stale_label_totals(self, tiny_corpus, model, monkeypatch):
        move = Labels.move

        def move_and_miscount_totals(labels, table, bag, k, step, headed):
            move(labels, table, bag, k, step, headed)
            if step > 0:
                counts, total = labels.bags[k]
                labels.bags[k] = (counts, total + 1)

        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(72)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        monkeypatch.setattr(Labels, "move", move_and_miscount_totals)
        with pytest.raises(AssertionError, match="lemma bag of label .* differs"):
            state.sweep(rng)

    @pytest.mark.parametrize("model", ["hddcrp_star", "hdp_lex"])
    def test_debug_mode_catches_a_label_missed_by_the_lemma_index(self, tiny_corpus, model):
        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(72)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        labels = state.labels
        labels.lemma_holders = {tok: [] for tok in labels.lemma_holders}
        with pytest.raises(AssertionError, match="merge ratio"):
            for _ in range(10):
                state.sweep(rng)

    @pytest.mark.parametrize("model", MODELS)
    def test_debug_mode_catches_a_joint_score_from_stale_bags(self, tiny_corpus, model):
        config = SamplerConfig(model=model, concentration=0.5, debug=True)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(74)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        state.sweep(rng)
        state.joint_log_score()
        bags = state.labels.bags if hasattr(state, "labels") else state.graph.bags
        key = next(iter(bags))
        counts, total = bags[key]
        bags[key] = (counts, total + 1)
        with pytest.raises(AssertionError, match="joint score"):
            state.joint_log_score()


def trained_state(corpus, resources, trained_model, model, seed, debug=False):
    config = SamplerConfig(model=model, seed=seed, debug=debug)
    priors = build_priors(corpus, config, trained_model, resources)
    rng = np.random.default_rng(seed)
    return init_state(corpus, config, rng, priors=priors), rng


def lone_mentions(cands):
    return [i for i, c in enumerate(cands) if len(c) == 1]


class TestLoneMoves:
    """A link over a support that holds only the self candidate."""

    @pytest.mark.parametrize("model", MODELS)
    def test_only_moves_over_several_candidates_propose(
        self, synthetic_corpus, resources, trained_model, model, monkeypatch
    ):
        state, rng = trained_state(synthetic_corpus, resources, trained_model, model, 81)
        state.sweep(rng)
        calls = Counter()
        side, weigh = LinkGraph.side, type(state)._weigh

        def counting_side(*args):
            calls["side"] += 1
            return side(*args)

        def counting_weigh(*args):
            calls["weigh"] += 1
            return weigh(*args)

        monkeypatch.setattr(LinkGraph, "side", counting_side)
        monkeypatch.setattr(type(state), "_weigh", counting_weigh)
        state.sweep(rng)
        proposals = sum(len(c) > 1 for c in state.cand_c)
        moves = state.n
        if model == "hddcrp":
            # the table pass leaves the customer links, so these are its heads
            heads = [i for i in range(state.n) if state.cl[i] == i]
            proposals += sum(len(state.cand_t[i]) > 1 for i in heads)
            moves += len(heads)
        assert 0 < proposals < moves
        assert calls == {"side": proposals, "weigh": proposals}

    @pytest.mark.parametrize("model", ["hddcrp", "ddcrp_flat"])
    def test_a_lone_link_move_spends_one_uniform_and_changes_nothing(
        self, synthetic_corpus, resources, trained_model, model
    ):
        state, rng = trained_state(synthetic_corpus, resources, trained_model, model, 82)
        state.sweep(rng)
        twin = np.random.default_rng()
        moves = [(state.sample_customer_link, i) for i in lone_mentions(state.cand_c)]
        if model == "hddcrp":
            heads = [i for i in lone_mentions(state.cand_t) if state.cl[i] == i]
            assert heads
            moves += [(state.sample_table_link, i) for i in heads]
        assert moves
        for move, i in moves:
            links = (list(state.cl), list(getattr(state, "tl", ())))
            snapshot = graph_snapshot(state.graph)
            twin.bit_generator.state = rng.bit_generator.state
            assert move(i, rng) == i
            twin.random()
            assert rng.bit_generator.state == twin.bit_generator.state
            assert (state.cl, getattr(state, "tl", [])) == links
            assert_graph_untouched(state.graph, snapshot)

    @pytest.mark.parametrize("model", ["hddcrp_star", "hdp_lex"])
    def test_a_lone_customer_move_is_one_uniform_then_a_label_move(
        self, synthetic_corpus, resources, trained_model, model
    ):
        state, rng = trained_state(synthetic_corpus, resources, trained_model, model, 83)
        twin, twin_rng = trained_state(synthetic_corpus, resources, trained_model, model, 83)
        state.sweep(rng)
        twin.sweep(twin_rng)
        lone = lone_mentions(state.cand_c)
        assert lone
        for i in lone:
            assert state.sample_customer_link(i, rng) == i
            twin_rng.random()
            twin.sample_table_label(i, twin_rng)
            assert rng.bit_generator.state == twin_rng.bit_generator.state
            assert state.cl == twin.cl
            labels, twin_labels = state.labels, twin.labels
            assert labels.of == twin_labels.of and labels.bags == twin_labels.bags
            assert labels.key_of == twin_labels.key_of and labels.keys == twin_labels.keys
            assert labels.next_label == twin_labels.next_label

    def test_prior_only_table_draws_pick_what_the_draw_picks(
        self, synthetic_corpus, resources, trained_model
    ):
        state, rng = trained_state(synthetic_corpus, resources, trained_model, "hddcrp", 84)
        grid = [0.0, *np.linspace(0.0, 1.0, 41)[1:-1].tolist(), 1.0 - 2.0**-53]
        assert lone_mentions(state.cand_t)
        for i, cands in enumerate(state.cand_t):
            # any customer link but the self one leaves the table link inactive
            linked, state.cl[i] = state.cl[i], (i + 1) % state.n
            for u in grid:
                want = cands[sampling._draw(FixedRng(u), [lw for _, lw in cands])][0]
                assert state.sample_table_link(i, FixedRng(u)) == want
            state.cl[i] = linked

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("corrupt", ["comp", "bag"])
    def test_debug_mode_checks_the_core_after_a_lone_move(
        self, synthetic_corpus, resources, trained_model, model, corrupt
    ):
        state, rng = trained_state(
            synthetic_corpus, resources, trained_model, model, 85, debug=True
        )
        i = lone_mentions(state.cand_c)[0]
        graph = state.graph
        home = graph.comp[i]
        other = next(k for k in graph.members if k != home)
        if corrupt == "comp":
            # one mention of another component takes i's component id
            graph.comp[next(iter(graph.members[other]))] = home
        else:
            graph.bags[other][0]["stray-lemma"] = 1
        with pytest.raises(AssertionError, match="component"):
            state.sample_customer_link(i, rng)


class TestSweepOperations:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("randomized_scan", [False, True])
    def test_flat_likelihood_adds_exactly_nothing_to_the_joint_score(
        self, synthetic_corpus, model, randomized_scan
    ):
        config = SamplerConfig(
            model=model, flat_likelihood=True, randomized_scan=randomized_scan, debug=True
        )
        priors = build_priors(synthetic_corpus, config, **UNIFORM)
        rng = np.random.default_rng(77)
        state = init_state(synthetic_corpus, config, rng, priors=priors)
        for _ in range(3):
            state.sweep(rng)
            prior = state._links_log_prior()
            if model in ("hddcrp_star", "hdp_lex"):
                sizes = sorted(state.labels.key_table[kid][0] for kid in state.labels.key_of.values())
                prior += crp_partition_log_prob(sizes, state.labels.alpha_0)
            assert state.joint_log_score() == prior

    def test_single_site_moves_respect_the_candidate_sets(self, tiny_corpus):
        config = SamplerConfig(model="hddcrp", concentration=0.5)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(66)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        for i in range(len(priors.customer)):
            state.sample_customer_link(i, rng)
            assert state.cl[i] in {j for j, _ in priors.customer[i]}
            state.sample_table_link(i, rng)
            assert state.tl[i] in {j for j, _ in priors.table[i]}

    def test_table_label_moves_need_a_table_head(self, tiny_corpus):
        config = SamplerConfig(model="hddcrp_star", concentration=0.5)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        rng = np.random.default_rng(66)
        state = init_state(tiny_corpus, config, rng, priors=priors)
        for head in state._heads():
            assert state.sample_table_label(head, rng) == state.labels.of[head]
        with pytest.raises(ValueError):
            state.sample_table_label(next(i for i, j in enumerate(state.cl) if j != i), rng)

    def test_sweeps_run_for_every_model(self, tiny_corpus):
        for model in MODELS:
            config = SamplerConfig(model=model, concentration=0.5)
            priors = build_priors(tiny_corpus, config, **UNIFORM)
            rng = np.random.default_rng(67)
            state = init_state(tiny_corpus, config, rng, priors=priors)
            state.sweep(rng)
            assert state.clustering().n_clusters() >= 1

    @pytest.mark.parametrize("model", MODELS)
    def test_clusterings_read_the_maintained_ids(self, synthetic_corpus, model):
        config = SamplerConfig(model=model, randomized_scan=True)
        priors = build_priors(synthetic_corpus, config, **UNIFORM)
        rng = np.random.default_rng(79)
        state = init_state(synthetic_corpus, config, rng, priors=priors)
        for _ in range(5):
            state.sweep(rng)
            want = ClusterAssignment.from_index_partition(state.mention_ids, state._parts())
            assert state.clustering() == want

    @pytest.mark.parametrize("model", MODELS)
    def test_map_estimates_read_the_maintained_ids(self, synthetic_corpus, model, monkeypatch):
        clustering = sampling._StateBase.clustering
        taken = []

        def checked_clustering(state):
            got = clustering(state)
            assert got == ClusterAssignment.from_index_partition(state.mention_ids, state._parts())
            taken.append(got)
            return got

        monkeypatch.setattr(sampling._StateBase, "clustering", checked_clustering)
        config = SamplerConfig(model=model, iterations=8, chains=2, seed=4, map_estimate=True)
        priors = build_priors(synthetic_corpus, config, **UNIFORM)
        results = run_chains(synthetic_corpus, config, priors=priors)
        # each chain takes its final clustering and at least its first best
        assert len(taken) > 2 * len(results)
        assert all(r.estimate in taken and r.final_clustering in taken for r in results)

    @pytest.mark.parametrize("model", MODELS)
    def test_debug_mode_catches_a_clustering_from_stale_ids(self, synthetic_corpus, model):
        config = SamplerConfig(model=model, debug=True)
        priors = build_priors(synthetic_corpus, config, **UNIFORM)
        state = init_state(synthetic_corpus, config, np.random.default_rng(80), priors=priors)
        state.clustering()
        ids = state._clusters()[1]
        # a mention that shares its cluster gets an id of its own
        ids[next(m for m in range(state.n) if ids.count(ids[m]) > 1)] = object()
        with pytest.raises(AssertionError, match="clustering from the maintained ids"):
            state.clustering()


class TestChains:
    def test_identical_seeds_reproduce_traces_and_estimates(self, tiny_corpus):
        config = SamplerConfig(model="hddcrp", iterations=40, chains=3, seed=9)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        a = run_chains(tiny_corpus, config, priors=priors)
        b = run_chains(tiny_corpus, config, priors=priors)
        for ra, rb in zip(a, b):
            assert ra.loglik_trace == rb.loglik_trace
            assert ra.estimate == rb.estimate

    def test_different_seeds_give_different_chains(self, tiny_corpus):
        base = SamplerConfig(model="hddcrp", iterations=40, chains=2, seed=9)
        other = SamplerConfig(model="hddcrp", iterations=40, chains=2, seed=10)
        priors = build_priors(tiny_corpus, base, **UNIFORM)
        a = run_chains(tiny_corpus, base, priors=priors)
        b = run_chains(tiny_corpus, other, priors=priors)
        assert any(ra.loglik_trace != rb.loglik_trace for ra, rb in zip(a, b))

    def test_trace_length_ignores_burn_in(self, tiny_corpus):
        config = SamplerConfig(model="hddcrp", iterations=15, chains=1, burn_in=10)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        (result,) = run_chains(tiny_corpus, config, priors=priors)
        assert len(result.loglik_trace) == 15

    def test_map_estimate_takes_the_best_visited_clustering(self, tiny_corpus):
        config = SamplerConfig(
            model="hddcrp", iterations=60, chains=1, seed=3, map_estimate=True
        )
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        (result,) = run_chains(tiny_corpus, config, priors=priors)
        assert result.estimate.n_clusters() >= 1
        plain = SamplerConfig(model="hddcrp", iterations=60, chains=1, seed=3)
        (base,) = run_chains(tiny_corpus, plain, priors=priors)
        assert base.estimate == base.final_clustering

    @pytest.mark.parametrize("map_estimate", [False, True])
    def test_a_non_finite_joint_score_names_its_chain_and_sweep(
        self, tiny_corpus, monkeypatch, map_estimate
    ):
        config = SamplerConfig(
            model="hddcrp", iterations=5, burn_in=2, chains=2, seed=3, map_estimate=map_estimate
        )
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        monkeypatch.setattr(sampling.HddcrpState, "joint_log_score", lambda state: math.nan)
        with pytest.raises(InputError, match="chain 0: joint log score is nan after sweep 3"):
            run_chains(tiny_corpus, config, priors=priors)

    def test_randomized_scan_is_still_seed_deterministic(self, tiny_corpus):
        config = SamplerConfig(
            model="hddcrp", iterations=30, chains=2, seed=5, randomized_scan=True
        )
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        a = run_chains(tiny_corpus, config, priors=priors)
        b = run_chains(tiny_corpus, config, priors=priors)
        assert [r.estimate for r in a] == [r.estimate for r in b]

    @pytest.mark.parametrize("model", MODELS)
    def test_parallel_jobs_reproduce_the_sequential_results(self, tiny_corpus, model):
        config = SamplerConfig(model=model, iterations=30, chains=3, seed=8)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        seq = run_chains(tiny_corpus, config, priors=priors, jobs=1)
        par = run_chains(tiny_corpus, config, priors=priors, jobs=3)
        for rs, rp in zip(seq, par):
            assert rs.loglik_trace == rp.loglik_trace
            assert rs.estimate == rp.estimate

    @pytest.mark.parametrize("model", MODELS)
    def test_chains_share_the_log_priors_built_once(self, tiny_corpus, model, monkeypatch):
        config = SamplerConfig(model=model, iterations=5, chains=3, seed=8)
        par = run_chains(tiny_corpus, config, priors=build_priors(tiny_corpus, config, **UNIFORM),
                         jobs=3)
        built = []
        with_logs = sampling._with_logs
        monkeypatch.setattr(sampling, "_with_logs", lambda s: built.append(s) or with_logs(s))
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        # the log forms are built with the priors, once per link level
        levels = [priors.customer] + ([priors.table] if model == "hddcrp" else [])
        assert len(built) == len(levels)
        assert all(a is b for a, b in zip(built, levels))
        seq = run_chains(tiny_corpus, config, priors=priors, jobs=1)
        assert len(built) == len(levels)
        assert [r.loglik_trace for r in seq] == [r.loglik_trace for r in par]
        assert [r.estimate for r in seq] == [r.estimate for r in par]
        params = LikelihoodParams.for_corpus(tiny_corpus, config.concentration)
        a, b = (init_state(tiny_corpus, config, np.random.default_rng(k), priors=priors,
                           params=params) for k in range(2))
        assert a.log_prior_c is b.log_prior_c and a.cand_c is b.cand_c
        if model == "hddcrp":
            assert a._prior_sums_t is b._prior_sums_t and a.log_prior_t is b.log_prior_t

    @pytest.mark.parametrize("model", MODELS)
    def test_chains_leave_the_priors_as_built(self, tiny_corpus, model):
        config = SamplerConfig(model=model, iterations=5, chains=2, seed=8)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        before = dict(vars(priors))
        run_chains(tiny_corpus, config, priors=priors, jobs=1)
        assert vars(priors).keys() == before.keys()
        assert all(vars(priors)[k] is v for k, v in before.items())

    @pytest.mark.parametrize("jobs, chains, workers", [(1000, 2, 2), (2, 3, 2)])
    def test_jobs_start_no_more_workers_than_chains(
        self, tiny_corpus, monkeypatch, jobs, chains, workers
    ):
        started = []

        class InlineExecutor:
            """Records its worker count and runs each task in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        config = SamplerConfig(model="hddcrp", iterations=5, chains=chains, seed=8)
        priors = build_priors(tiny_corpus, config, **UNIFORM)
        seq = run_chains(tiny_corpus, config, priors=priors)
        # run_chains imports the pool class from concurrent.futures when it needs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        par = run_chains(tiny_corpus, config, priors=priors, jobs=jobs)
        assert started == [workers]
        assert [r.loglik_trace for r in par] == [r.loglik_trace for r in seq]

    def test_full_model_set_runs_on_the_synthetic_corpus(
        self, synthetic_corpus, resources, trained_model
    ):
        for model in MODELS:
            config = SamplerConfig(model=model, iterations=3, chains=1, seed=1)
            priors = build_priors(synthetic_corpus, config, trained_model, resources)
            results = run_chains(synthetic_corpus, config, priors=priors)
            assert results[0].estimate.n_clusters() >= 1

"""End-to-end guarantees of the package, one test per guarantee.

Each test checks an externally meaningful property at a fixed tolerance:
sampler agreement with exact enumeration, the CRP reduction under uniform
distances, closed-form likelihood identities, distance-model gradients,
metric implementations against brute force, model ranking through the real
command line pipeline, and byte-level reproducibility.  The terminal summary
prints one PASS/FAIL line per test in this file.
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from hddcrp.cli import main
from hddcrp.corpus import Corpus, Document, Mention
from hddcrp.data import (
    synthetic_corpus_path,
    synthetic_embeddings_path,
    synthetic_synonyms_path,
    tiny_corpus_path,
)
from hddcrp.likelihood import LikelihoodParams, log_marginal_raw
from hddcrp.metrics import b_cubed, ceaf_e, muc
from hddcrp.pairwise import (
    FeatureExtractor,
    build_training_pairs,
    pair_accuracy,
    train,
)
from hddcrp.sampling import (
    SamplerConfig,
    build_priors,
    enumerate_exact_posterior,
    init_state,
)
from reference_impls import (
    b_cubed_reference,
    ceaf_e_reference,
    clustering_of,
    crp_eppf,
    dirichlet_marginal_reference,
    muc_reference,
    penalized_grad,
    penalized_loglik,
    total_variation,
)

UNIFORM = dict(uniform=True)


@pytest.fixture(autouse=True)
def scrub_seed_env(monkeypatch):
    monkeypatch.delenv("HDDCRP_SEED", raising=False)


def test_sampler_recovers_the_exact_posterior_on_a_small_corpus(tiny_corpus):
    """100,000 Gibbs sweeps land within 0.05 total variation of enumeration."""
    start = time.perf_counter()
    config = SamplerConfig(model="hddcrp")
    priors = build_priors(tiny_corpus, config, **UNIFORM)
    exact = enumerate_exact_posterior(tiny_corpus, config, priors=priors)
    exact = {frozenset(a.partition()): p for a, p in exact.items()}

    rng = np.random.default_rng(0)
    state = init_state(tiny_corpus, config, rng, priors=priors)
    counts = Counter()
    sweeps, discard = 100_000, 1_000
    for t in range(sweeps):
        state.sweep(rng)
        if t >= discard:
            counts[frozenset(state.clustering().partition())] += 1
    total = sum(counts.values())
    empirical = {k: v / total for k, v in counts.items()}

    elapsed = time.perf_counter() - start
    assert total_variation(exact, empirical) < 0.05
    assert elapsed < 120.0


def test_uniform_distances_reduce_to_the_chinese_restaurant_process():
    """Single document, constant distances, flat likelihood: exact CRP law."""
    for n in (3, 4, 5):
        mentions = [
            Mention(f"d-m{k}", "d", k, "w", "NN", ("w",), (), {}) for k in range(n)
        ]
        corpus = Corpus((Document("d", "ev", mentions),))
        for alpha in (0.5, 1.0, 2.7):
            config = SamplerConfig(model="hddcrp", alpha_d=alpha, flat_likelihood=True)
            priors = build_priors(corpus, config, **UNIFORM)
            posterior = enumerate_exact_posterior(corpus, config, priors=priors)
            assert math.isclose(sum(posterior.values()), 1.0, rel_tol=1e-12)
            for assignment, prob in posterior.items():
                sizes = sorted(len(part) for part in assignment.partition())
                assert math.isclose(prob, crp_eppf(sizes, alpha), rel_tol=1e-12)
            if n == 3 and alpha == 1.0:
                singletons = next(
                    p for a, p in posterior.items() if a.n_clusters() == 3
                )
                assert math.isclose(singletons, 1 / 6, rel_tol=1e-12)


def test_cluster_likelihood_matches_closed_form_and_incremental_ratios(tiny_corpus):
    """Marginals agree with the dense gamma form; sweep deltas with rescoring."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        vocab = int(rng.integers(2, 50))
        distinct = int(rng.integers(1, min(vocab, 12) + 1))
        counts = {f"w{j}": int(rng.integers(1, 9)) for j in range(distinct)}
        conc = float(rng.choice([1e-7, 1e-3, 0.5, 2.0]))
        params = LikelihoodParams(conc, vocab)
        ours = log_marginal_raw(counts, sum(counts.values()), params)
        ref = dirichlet_marginal_reference(counts, vocab, conc)
        assert math.isclose(ours, ref, abs_tol=1e-9)

    # debug sweeps re-derive every accepted ratio from scratch at 1e-9
    config = SamplerConfig(model="hddcrp", debug=True)
    priors = build_priors(tiny_corpus, config, **UNIFORM)
    sweep_rng = np.random.default_rng(3)
    state = init_state(tiny_corpus, config, sweep_rng, priors=priors)
    done = 0
    for _ in range(500):
        state.sweep(sweep_rng)
        done += 1
    assert done == 500


def test_distance_gradient_matches_finite_differences_and_separates(
    synthetic_corpus, resources
):
    """Analytic gradient at 20 random points; near-perfect pair accuracy."""
    pairs = build_training_pairs(synthetic_corpus, sigma=0.4)
    extractor = FeatureExtractor.from_corpus(synthetic_corpus)
    mentions = synthetic_corpus.mentions_in_order()
    features = np.array(
        [extractor.extract(mentions[p.a], mentions[p.b], resources) for p in pairs]
    )
    labels = np.array([1.0 if p.coreferent else -1.0 for p in pairs])

    rng = np.random.default_rng(17)
    h = 1e-6
    for _ in range(20):
        theta = rng.normal(scale=0.7, size=features.shape[1])
        grad = penalized_grad(theta, features, labels, l2=1.0)
        for k in range(len(theta)):
            step = np.zeros_like(theta)
            step[k] = h
            fd = (
                penalized_loglik(theta + step, features, labels, 1.0)
                - penalized_loglik(theta - step, features, labels, 1.0)
            ) / (2 * h)
            assert math.isclose(grad[k], fd, rel_tol=1e-5, abs_tol=1e-8)

    model = train(synthetic_corpus, resources, pairs=pairs)
    assert pair_accuracy(model, synthetic_corpus, resources, pairs) >= 0.99


def test_metrics_match_brute_force_and_the_worked_example():
    """500 random partition pairs at 1e-12, plus a fully hand-checked case."""
    rng = np.random.default_rng(29)
    for _ in range(500):
        n = int(rng.integers(1, 11))
        mentions = [f"m{k}" for k in range(n)]
        partitions = []
        for _ in range(2):
            k = int(rng.integers(1, n + 1))
            labels = rng.integers(0, k, size=n)
            groups = {}
            for m, l in zip(mentions, labels):
                groups.setdefault(int(l), set()).add(m)
            partitions.append([frozenset(g) for g in groups.values()])
        gold, pred = partitions
        for ours, ref in (
            (muc, muc_reference),
            (b_cubed, b_cubed_reference),
            (ceaf_e, ceaf_e_reference),
        ):
            got = ours(clustering_of(gold, mentions), clustering_of(pred, mentions))
            p, r, f = ref(gold, pred)
            assert math.isclose(got.precision, p, abs_tol=1e-12)
            assert math.isclose(got.recall, r, abs_tol=1e-12)
            assert math.isclose(got.f1, f, abs_tol=1e-12)

    gold = clustering_of([{"a", "b", "c"}])
    pred = clustering_of([{"a", "b"}, {"c"}])
    assert math.isclose(muc(gold, pred).f1, 2 / 3, rel_tol=1e-12)
    assert math.isclose(b_cubed(gold, pred).f1, 5 / 7, rel_tol=1e-12)
    assert math.isclose(ceaf_e(gold, pred).f1, 8 / 15, rel_tol=1e-12)


def test_pipeline_ranks_the_models_on_the_synthetic_corpus(tmp_path):
    """train-distance, sample, score: richer models win on cross-document CoNLL."""
    start = time.perf_counter()
    corpus = str(synthetic_corpus_path())
    resources = [
        "--embeddings", str(synthetic_embeddings_path()),
        "--synonyms", str(synthetic_synonyms_path()),
    ]
    model_file = tmp_path / "distance.json"
    assert main(["train-distance", "--corpus", corpus, *resources,
                 "-o", str(model_file)]) == 0

    def cd_conll(prediction_files):
        report = tmp_path / f"report{len(list(tmp_path.iterdir()))}.json"
        code = main(["score", "--corpus", corpus, *map(str, prediction_files),
                     "--setting", "CD", "-o", str(report)])
        assert code == 0
        return json.loads(report.read_text(encoding="utf-8"))["reports"]["CD"]["conll_f1"]

    scores = {}
    for name in ("hddcrp", "hddcrp-star", "hdp-lex"):
        out = tmp_path / name
        argv = ["sample", "--corpus", corpus, "--model", name,
                "--output-dir", str(out)]
        if name != "hdp-lex":
            argv += ["--distance-model", str(model_file), *resources]
        assert main(argv) == 0
        chains = sorted(out.glob("chain-*.clustering.json"))
        assert len(chains) == 5
        scores[name] = cd_conll(chains)

    lemma = tmp_path / "lemma.clustering.json"
    assert main(["baseline", "--corpus", corpus, "--method", "lemma",
                 "-o", str(lemma)]) == 0
    scores["lemma"] = cd_conll([lemma])

    elapsed = time.perf_counter() - start
    assert scores["hddcrp"] >= scores["hddcrp-star"] >= scores["hdp-lex"]
    assert scores["hddcrp"] > scores["lemma"]
    assert elapsed < 300.0


def test_repeated_runs_write_byte_identical_outputs(tmp_path):
    """Every command, run twice with the same seed and inputs, matches exactly."""
    corpus = str(synthetic_corpus_path())
    tiny = str(tiny_corpus_path())
    resources = [
        "--embeddings", str(synthetic_embeddings_path()),
        "--synonyms", str(synthetic_synonyms_path()),
    ]
    model_file = tmp_path / "model.json"
    sample_dir = tmp_path / "chains"
    commands = [
        ["train-distance", "--corpus", corpus, *resources, "-o", str(model_file)],
        ["sample", "--corpus", tiny, "--model", "hddcrp", "--uniform-distances",
         "--iterations", "50", "--chains", "2", "--seed", "9",
         "--output-dir", str(sample_dir)],
        ["baseline", "--corpus", corpus, "--method", "lemma",
         "-o", str(tmp_path / "lemma.json")],
        ["score", "--corpus", corpus, str(tmp_path / "lemma.json"),
         "-o", str(tmp_path / "report.json")],
        ["oracle-posterior", "--corpus", tiny, "--uniform-distances",
         "-o", str(tmp_path / "posterior.json")],
    ]

    def outputs():
        files = sorted(p for p in tmp_path.rglob("*") if p.is_file())
        return {str(p): p.read_bytes() for p in files}

    for argv in commands:
        assert main(argv) == 0
    first = outputs()
    assert first
    for argv in commands:
        assert main(argv) == 0
    assert outputs() == first

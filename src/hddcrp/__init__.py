"""Hierarchical distance-dependent CRP models for event coreference.

The package covers the full pipeline: corpus ingestion, pairwise distance
training, collapsed Gibbs sampling for the link-based clustering models,
deterministic baselines, and MUC / B-cubed / CEAF-e scoring.
"""

from .baselines import AgglomerativeConfig, agglomerative, lemma_baseline
from .corpus import (
    ARGUMENT_ROLES,
    Corpus,
    Document,
    LexicalResources,
    Mention,
    doc_similarity,
    gold_partition,
    load_corpus,
    save_corpus,
)
from .errors import InputError, UniverseMismatchError
from .features import FeatureExtractor
from .likelihood import LikelihoodParams, corpus_log_likelihood, lemma_bags
from .links import ClusterAssignment
from .metrics import (
    ScoreReport,
    b_cubed,
    ceaf_e,
    format_table,
    mean_reports,
    muc,
    score,
)
from .pairwise import (
    PairwiseModel,
    build_training_pairs,
    load_model,
    pair_accuracy,
    save_model,
    train,
)
from .sampling import (
    DEFAULT_ALPHA_0,
    MODELS,
    ChainResult,
    SamplerConfig,
    build_priors,
    enumerate_exact_posterior,
    init_state,
    run_chains,
)

__version__ = "0.1.0"

__all__ = [
    "ARGUMENT_ROLES",
    "AgglomerativeConfig",
    "ChainResult",
    "ClusterAssignment",
    "Corpus",
    "DEFAULT_ALPHA_0",
    "Document",
    "FeatureExtractor",
    "InputError",
    "LexicalResources",
    "LikelihoodParams",
    "MODELS",
    "Mention",
    "PairwiseModel",
    "SamplerConfig",
    "ScoreReport",
    "UniverseMismatchError",
    "agglomerative",
    "b_cubed",
    "build_priors",
    "build_training_pairs",
    "ceaf_e",
    "corpus_log_likelihood",
    "doc_similarity",
    "enumerate_exact_posterior",
    "format_table",
    "gold_partition",
    "init_state",
    "lemma_bags",
    "lemma_baseline",
    "load_corpus",
    "load_model",
    "mean_reports",
    "muc",
    "pair_accuracy",
    "run_chains",
    "save_corpus",
    "save_model",
    "score",
    "train",
]

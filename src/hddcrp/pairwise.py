"""Log-linear mention-pair similarity model and the distances built from it.

The model scores a pair as the logistic value of a weighted feature sum.
Within one document the distance between a mention and an earlier one is that
similarity, truncated to 0 below a threshold (inclusive passthrough at the
threshold itself).  Across documents the truncated similarity is additionally
scaled by exp(gamma * document cosine similarity).

Training maximizes sum_i log sigmoid(y_i * theta . x_i) - l2 * ||theta||^2
over labeled pairs with y in {+1, -1}; the objective is strictly concave, so
the optimum is unique and the fit deterministic from a zero start.

The per-pair methods (`pair_similarity`, `within_doc_distance`, ...) are the
reference.  Priors, training and the baselines score many pairs at once with
`similarity_block` and `upper_pairs`, which use the block features of
`features.PairFeatures`; their values agree with the per-pair ones up to the
order in which the weighted feature sum is accumulated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .corpus import doc_similarity, read_text
from .errors import InputError
from .features import BLOCK_ROWS, FeatureExtractor, PairFeatures, cosine_matrix


@dataclass(frozen=True)
class TrainingPair:
    a: str
    b: str
    coreferent: bool

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("a training pair needs two distinct mentions")


def build_training_pairs(corpus, sigma=0.4):
    """Labeled mention pairs: all within-document ordered pairs (each later
    mention against each earlier one) plus every cross-document pair once,
    restricted to document pairs with cosine similarity at least sigma."""
    if corpus.gold is None:
        raise InputError("training requires gold chains")
    if not np.isfinite(sigma):
        raise InputError(f"sigma must be finite, got {sigma}")
    chain_of = corpus.gold.chain_of()

    def coreferent(a, b):
        ka = chain_of.get(a.mention_id)
        return ka is not None and ka == chain_of.get(b.mention_id)

    pairs = []
    for d in sorted(corpus.documents, key=lambda d: d.doc_id):
        for i, a in enumerate(d.mentions):
            for b in d.mentions[:i]:
                pairs.append(TrainingPair(a.mention_id, b.mention_id, coreferent(a, b)))
    docs = sorted(corpus.documents, key=lambda d: d.doc_id)
    for i, d in enumerate(docs):
        for d2 in docs[i + 1 :]:
            if doc_similarity(d, d2) < sigma:
                continue
            for a in d.mentions:
                for b in d2.mentions:
                    pairs.append(TrainingPair(a.mention_id, b.mention_id, coreferent(a, b)))
    return pairs


def penalized_loglik(theta, features, labels, l2):
    """sum log sigmoid(y * theta . x) - l2 * ||theta||^2."""
    margins = labels * (features @ theta)
    return float(-np.logaddexp(0.0, -margins).sum() - l2 * theta @ theta)


def penalized_grad(theta, features, labels, l2):
    from scipy.special import expit

    margins = labels * (features @ theta)
    return features.T @ (labels * expit(-margins)) - 2.0 * l2 * theta


def fit_theta(features, labels, l2, gtol=1e-6, max_iter=10000):
    """Maximize the penalized log likelihood from a zero start."""
    from scipy.optimize import minimize

    def objective(theta):
        return -penalized_loglik(theta, features, labels, l2), -penalized_grad(
            theta, features, labels, l2
        )

    result = minimize(
        objective,
        np.zeros(features.shape[1]),
        jac=True,
        method="L-BFGS-B",
        options={"gtol": gtol, "ftol": 1e-14, "maxiter": max_iter, "maxfun": 10 * max_iter},
    )
    return result.x


@dataclass(frozen=True)
class PairwiseModel:
    """Trained weights plus the extractor and distance hyperparameters."""

    theta: np.ndarray
    extractor: FeatureExtractor
    l2_strength: float = 1.0
    truncation_threshold: float = 0.5
    gamma: float = 1.0

    def __post_init__(self):
        if self.theta.shape != (len(self.extractor),):
            raise InputError(
                f"weight vector has {self.theta.shape[0]} entries, "
                f"feature map has {len(self.extractor)}"
            )
        if not np.isfinite(self.theta).all():
            raise InputError("weight vector contains non-finite values")
        values = (self.l2_strength, self.truncation_threshold, self.gamma)
        if not np.isfinite(values).all() or self.l2_strength < 0:
            raise InputError(f"l2, truncation threshold and gamma must be finite and l2 "
                             f"nonnegative, got {values}")
        if not 0 <= self.truncation_threshold <= 1:
            raise InputError(f"truncation threshold must lie in [0, 1], "
                             f"got {self.truncation_threshold}")

    def pair_similarity(self, a, b, resources):
        """Logistic similarity in (0, 1); symmetric in a and b."""
        from scipy.special import expit

        return float(expit(self.theta @ self.extractor.extract(a, b, resources)))

    def truncated_similarity(self, a, b, resources):
        sim = self.pair_similarity(a, b, resources)
        return sim if sim >= self.truncation_threshold else 0.0

    def within_doc_distance(self, a, b, resources):
        """Prior weight for linking mention a to the earlier mention b."""
        if a.doc_id != b.doc_id:
            raise ValueError("within-document distance across documents")
        if b.order_index >= a.order_index:
            raise ValueError("antecedent must precede the linking mention")
        return self.truncated_similarity(a, b, resources)

    def cross_doc_distance(self, a, b, doc_a, doc_b, resources):
        """Prior weight for a table link between mentions of two documents."""
        if a.doc_id == b.doc_id:
            raise ValueError("cross-document distance within one document")
        sim = self.truncated_similarity(a, b, resources)
        if sim == 0.0:
            return 0.0
        return float(np.exp(self.gamma * doc_similarity(doc_a, doc_b))) * sim

    def similarity_block(self, features, rows, cols):
        """pair_similarity of every pair rows x cols of a PairFeatures list,
        as an array; the logit adds theta_k * feature_k one feature at a time."""
        from scipy.special import expit

        logit = self.theta[features.pos_columns(rows, cols)]
        logit += self.theta[features.bias]
        for k, values in features.values(rows, cols):
            logit += self.theta[k] * values
        return expit(logit, out=logit)

    def truncate(self, sims):
        """truncated_similarity applied to an array of similarities."""
        return np.where(sims >= self.truncation_threshold, sims, 0.0)

    def upper_pairs(self, mentions, resources):
        """Yield (i, j, similarity) arrays that together hold every pair i < j
        of the mention list once, BLOCK_ROWS values of i at a time."""
        features = PairFeatures(self.extractor, mentions, resources)
        n = len(mentions)
        for start in range(0, n, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n)
            sims = self.similarity_block(features, slice(start, stop), slice(start, n))
            r, c = np.triu_indices(stop - start, 1, n - start)
            yield r + start, c + start, sims[r, c]

    def cross_doc_factors(self, documents):
        """exp(gamma * doc_similarity) of every pair of documents, as a matrix."""
        return np.exp(self.gamma * cosine_matrix([d.tf_vector for d in documents]))


def pair_features(corpus, resources, extractor, pairs):
    """Feature matrix of labelled pairs: row p is extract(p.a, p.b)."""
    order = corpus.mentions_in_order()
    index = {m.mention_id: k for k, m in enumerate(order)}
    a = np.array([index[p.a] for p in pairs], dtype=np.intp)
    b = np.array([index[p.b] for p in pairs], dtype=np.intp)
    return PairFeatures(extractor, order, resources).gather(a, b)


def train(
    corpus,
    resources,
    l2=1.0,
    sigma=0.4,
    truncation_threshold=0.5,
    gamma=1.0,
    extractor=None,
    pairs=None,
    gtol=1e-6,
    max_iter=10000,
    features=None,
):
    """Fit a PairwiseModel on a gold-annotated corpus.

    features: the pairs' feature matrix from pair_features, when the caller
    already has it; built here otherwise.
    """
    if extractor is None:
        extractor = FeatureExtractor.from_corpus(corpus)
    # checks the hyperparameters before the fit
    model = PairwiseModel(np.zeros(len(extractor)), extractor, l2, truncation_threshold, gamma)
    if pairs is None:
        pairs = build_training_pairs(corpus, sigma)
    if not pairs:
        raise InputError("no training pairs (corpus too small or sigma too high)")
    if features is None:
        features = pair_features(corpus, resources, extractor, pairs)
    labels = np.array([1.0 if p.coreferent else -1.0 for p in pairs])
    if not np.isfinite(features).all():
        raise InputError("non-finite feature values in training data")
    if len(np.unique(labels)) < 2:
        raise InputError("training pairs all carry the same label")
    return replace(model, theta=fit_theta(features, labels, l2, gtol, max_iter))


def pair_accuracy(model, corpus, resources, pairs, features=None):
    """Fraction of pairs whose 0.5-thresholded similarity matches the label.

    features: the pairs' feature matrix, when the caller already has it.
    """
    from scipy.special import expit

    if features is None:
        features = pair_features(corpus, resources, model.extractor, pairs)
    predicted = expit(features @ model.theta) >= 0.5
    labels = np.array([p.coreferent for p in pairs], dtype=bool)
    return int(np.count_nonzero(predicted == labels)) / len(pairs)


def save_model(model, path, config=None):
    obj = {
        "theta": [float(v) for v in model.theta],
        "feature_index": {k: model.extractor.feature_index[k] for k in model.extractor.feature_names},
        "l2": model.l2_strength,
        "truncation_threshold": model.truncation_threshold,
        "gamma": model.gamma,
    }
    if config is not None:
        obj["config"] = config
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    text = read_text(path)
    try:
        obj = json.loads(text)
        index = obj["feature_index"]
        if not isinstance(index, dict) or any(type(v) is not int for v in index.values()):
            raise InputError(f"{path}: feature_index must map feature names to integers")
        extractor = FeatureExtractor.from_feature_index(index)
        theta = np.array([float(v) for v in obj["theta"]])
        return PairwiseModel(
            theta,
            extractor,
            float(obj.get("l2", 1.0)),
            float(obj.get("truncation_threshold", 0.5)),
            float(obj.get("gamma", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed model file ({exc})") from exc

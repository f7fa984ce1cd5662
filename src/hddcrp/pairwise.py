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
reference.  Training scores its pairs with `features.PairFeatures.gather`.
Priors and the agglomerative baseline keep only the pairs whose similarity
reaches a floor that their thresholds imply, and `scored_pairs` scores only
the candidates that can reach it: the pairs that share a token in a bag of
positive weight, and the pairs whose head lemma pair reaches the floor under
an upper bound of the logit that takes the per-mention terms at their
largest.  Their values agree with the per-pair ones up to the order in which
the weighted feature sum is accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import doc_similarity, gold_partition, located, read_json, write_json
from .errors import InputError
from .features import FeatureExtractor, PairFeatures, batched, cosine_matrix, row_blocks

# L-BFGS-B stopping rule of the fit: projected gradient tolerance and iteration cap
GTOL = 1e-6
MAX_ITER = 10_000


def build_training_pairs(corpus, sigma=0.4):
    """Labeled mention pairs as a record array of canonical mention indices
    a, b and the flag coreferent: every within-document pair (each later
    mention against each earlier one), document by document, then every
    cross-document pair once, for the document pairs with cosine similarity
    at least sigma, mentions of the earlier document first."""
    if corpus.gold is None:
        raise InputError("training requires gold chains")
    if not np.isfinite(sigma):
        raise InputError(f"sigma must be finite, got {sigma}")
    spans = [np.arange(lo, hi) for lo, hi in zip(corpus.bounds, corpus.bounds[1:])]
    a, b = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for span in spans:
        later, earlier = np.tril_indices(len(span), -1)
        a.append(span[later])
        b.append(span[earlier])
    similar = np.triu(cosine_matrix([d.tf_vector for d in corpus.documents]) >= sigma, 1)
    for d, e in zip(*np.nonzero(similar)):
        a.append(np.repeat(spans[d], len(spans[e])))
        b.append(np.tile(spans[e], len(spans[d])))
    a, b = np.concatenate(a), np.concatenate(b)
    labels = np.array(gold_partition(corpus).labels)
    return np.rec.fromarrays((a, b, labels[a] == labels[b]), names="a,b,coreferent")


def _loglik(theta, margins, l2):
    """sum log sigmoid(margins) - l2 * ||theta||^2, where the margins are
    y * theta . x of each labelled pair."""
    return float(-np.logaddexp(0.0, -margins).sum() - l2 * theta @ theta)


def _grad(theta, features, labels, margins, l2):
    from scipy.special import expit

    return features.T @ (labels * expit(-margins)) - 2.0 * l2 * theta


def _objective(theta, features, labels, l2):
    """Negated penalized log likelihood and its gradient, from one
    features @ theta product."""
    margins = labels * (features @ theta)
    return -_loglik(theta, margins, l2), -_grad(theta, features, labels, margins, l2)


def fit_theta(features, labels, l2):
    """Maximize the penalized log likelihood from a zero start."""
    from scipy.optimize import minimize

    result = minimize(
        _objective,
        np.zeros(features.shape[1]),
        args=(features, labels, l2),
        jac=True,
        method="L-BFGS-B",
        options={"gtol": GTOL, "ftol": 1e-14, "maxiter": MAX_ITER, "maxfun": 10 * MAX_ITER},
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
        # a finite sum of |theta| keeps every logit, partial sum and bound of
        # it finite, as every feature lies in [0, 1]
        with np.errstate(over="ignore"):
            if not np.isfinite(np.abs(self.theta).sum()):
                raise InputError("weight vector has a non-finite absolute sum")
            values = (self.l2_strength, self.truncation_threshold, self.gamma)
            if not np.isfinite(values).all() or self.l2_strength < 0:
                raise InputError(f"l2, truncation threshold and gamma must be finite and l2 "
                                 f"nonnegative, got {values}")
            # exp(gamma * document cosine) scales cross-document priors
            if not np.isfinite(np.exp(self.gamma)):
                raise InputError(f"exp(gamma) must be finite, got gamma = {self.gamma}")
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

    def scored_pairs(self, corpus, resources, within, across):
        """Yield (i, j, similarity) arrays of canonical mention indices i < j,
        in ascending order, one per batch of scored candidates: every pair of
        one document whose similarity is at least the floor within, and,
        unless across is None, every pair of two documents whose similarity
        is at least the floor across.

        Only candidates are scored.  A pair that shares no token in a bag of
        positive weight has a logit of at most its head lemma pair's terms
        plus the bias, the largest POS-pair weight and the positive
        both-present weights; a pair is a candidate if it shares such a token
        or if that bound reaches the lower floor.  The candidates of each
        block of features.row_blocks come from inverted indexes of tokens and
        head lemmas (`PairFeatures.candidates`), the head lemma bound over
        the grid of the block's row lemmas x column lemmas.  Each
        candidate's logit adds theta_k * feature_k one feature at a time, in
        the order of `PairFeatures.pair_values`, so its similarity is the
        one that scoring every pair the same way gives.
        """
        from scipy.special import expit

        features = PairFeatures(self.extractor, corpus.mentions_in_order(), resources)
        theta = self.theta
        floor = within if across is None else min(within, across)
        top = theta[features.pos_table].max(initial=-np.inf) + theta[features.bias]
        top += sum(max(theta[k], 0.0) for k, _ in features.present)
        # every feature lies in [0, 1], so a logit and its bound each round
        # off by less than len(theta) half-ulps of the sum of |theta|
        slack = 2 * len(theta) * np.finfo(float).eps * np.abs(theta).sum()
        lemma_terms = (features.head_match, features.embedding_k, features.jaccard_k)
        # no head lemma pair reaches the floor if its terms at their largest do not
        reachable = expit(top + sum(max(theta[k], 0.0) for k in lemma_terms) + slack) >= floor
        joined = np.array([theta[k] > 0 for k, _, _ in features.bags])

        def found():
            for rows, hi in row_blocks(corpus.bounds, across is not None):
                reach = None
                if reachable:
                    ra = np.unique(features.lemma[rows])
                    rb = np.unique(features.lemma[rows.start:hi[-1]])
                    grid = np.repeat(ra, len(rb)), np.tile(rb, len(ra))
                    bound = top
                    for k, values in features.lemma_values(*grid):
                        bound = bound + theta[k] * values
                    reach = ra, rb, (expit(bound + slack) >= floor).reshape(len(ra), len(rb))
                yield features.candidates(rows, hi, reach, joined)

        doc_of = corpus.doc_of()
        for i, j, dots in batched(found(), features.n):
            logit = theta[features.pos_table[features.tag[i], features.tag[j]]]
            logit += theta[features.bias]
            for k, values in features.pair_values(i, j, dots):
                logit += theta[k] * values
            sims = expit(logit, out=logit)
            floors = within if across is None else np.where(doc_of[i] == doc_of[j], within, across)
            keep = sims >= floors
            yield i[keep], j[keep], sims[keep]

    def cross_doc_factors(self, documents):
        """exp(gamma * doc_similarity) of every pair of documents, as a matrix."""
        return np.exp(self.gamma * cosine_matrix([d.tf_vector for d in documents]))


def pair_features(corpus, resources, extractor, pairs):
    """Feature matrix of labelled pairs: row p is extract of the mentions
    with canonical indices pairs.a[p] and pairs.b[p]."""
    order = corpus.mentions_in_order()
    return PairFeatures(extractor, order, resources).gather(pairs.a, pairs.b)


def train(
    corpus,
    resources,
    l2=1.0,
    sigma=0.4,
    truncation_threshold=0.5,
    gamma=1.0,
    extractor=None,
    pairs=None,
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
    if not len(pairs):
        raise InputError("no training pairs (corpus too small or sigma too high)")
    if features is None:
        features = pair_features(corpus, resources, extractor, pairs)
    labels = np.where(pairs.coreferent, 1.0, -1.0)
    if not np.isfinite(features).all():
        raise InputError("non-finite feature values in training data")
    if len(np.unique(labels)) < 2:
        raise InputError("training pairs all carry the same label")
    return replace(model, theta=fit_theta(features, labels, l2))


def pair_accuracy(model, corpus, resources, pairs, features=None):
    """Fraction of pairs whose 0.5-thresholded similarity matches the label.

    features: the pairs' feature matrix, when the caller already has it.
    """
    from scipy.special import expit

    if features is None:
        features = pair_features(corpus, resources, model.extractor, pairs)
    predicted = expit(features @ model.theta) >= 0.5
    return int(np.count_nonzero(predicted == pairs.coreferent)) / len(pairs)


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
    write_json(path, obj)


def load_model(path):
    obj = read_json(path)
    with located(path):
        try:
            index = obj["feature_index"]
            if not isinstance(index, dict) or any(type(v) is not int for v in index.values()):
                raise InputError("feature_index must map feature names to integers")
            extractor = FeatureExtractor.from_feature_index(index)
            theta = np.array([float(v) for v in obj["theta"]])
            hyper = (float(obj[k]) for k in ("l2", "truncation_threshold", "gamma"))
            return PairwiseModel(theta, extractor, *hyper)
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise InputError(f"malformed model file ({exc})") from exc

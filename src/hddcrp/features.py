"""Pairwise feature vectors for mention pairs.

Every feature is a nonnegative similarity in [0, 1] or a 0/1 indicator, so a
learned positive weight always means "more alike".  The POS-pair block is a
one-hot over unordered tag pairs observed when the extractor was built, with
an extra bucket for pairs never seen there.  Role features come with a
companion both-present indicator because a 0 cosine is ambiguous between
"dissimilar arguments" and "no arguments at all".

`FeatureExtractor.extract` scores one pair and is the reference.
`pair_blocks` walks the pairs that priors and the agglomerative baseline score.
`PairFeatures` computes the same values for a block of pairs at once: lemma
and tag ids are compared as arrays, the embedding cosine and synonym Jaccard
are computed once per distinct head lemma pair, and the integer dot products
of the tf-cosines and the Jaccard are one dense float64 matrix product per
block.  The token lists are kept as CSR arrays of integer counts, and the
product's inner dimension is only the distinct tokens the block's rows hold.
Every product and partial sum is a small integer, so the dots are exact in
any order of summation, and the divide, the clamp and the norms are
`count_cosine`'s.  Each value therefore equals `extract`'s bit for bit, so a
model trained on block features is the model trained on `extract`'s.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .corpus import ARGUMENT_ROLES, count_cosine

_SIM_FEATURES = ("head_embedding_cosine", "span_tf_cosine", "synonym_jaccard", "context_tf_cosine")

# Mention rows scored at a time against at most all n mentions: the block
# computations then need O(BLOCK_ROWS * n * tokens per mention) extra memory,
# never O(n * n) nor O(n * vocabulary).
BLOCK_ROWS = 64


def pair_blocks(bounds, across):
    """Yield (rows, cols, r, c) per block of at most BLOCK_ROWS rows: its pairs
    i < j are (rows.start + r, cols.start + c), all of them if across, else
    only those within a document, with cols ending at the last row's document."""
    n = bounds[-1]
    doc = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        end = n if across else bounds[doc[stop - 1] + 1]
        r, c = np.triu_indices(stop - start, 1, end - start)
        if not across:
            keep = doc[start + r] == doc[start + c]
            r, c = r[keep], c[keep]
        yield slice(start, stop), slice(start, end), r, c


def _tf_cosine(a_tokens, b_tokens):
    return count_cosine(Counter(a_tokens), Counter(b_tokens))


def _embedding_cosine(resources, a_lemma, b_lemma):
    va, vb = resources.vector(a_lemma), resources.vector(b_lemma)
    na, nb = np.linalg.norm(va), np.linalg.norm(vb)
    if na == 0 or nb == 0:
        return 0.0
    return min(1.0, max(0.0, float(np.dot(va, vb) / (na * nb))))


def _jaccard(a_set, b_set):
    union = len(a_set | b_set)
    if union == 0:
        return 0.0
    return len(a_set & b_set) / union


def pos_pair_key(pos_a, pos_b):
    """Canonical name for an unordered POS tag pair."""
    lo, hi = sorted((pos_a, pos_b))
    return f"{lo}|{hi}"


class FeatureExtractor:
    """Maps a mention pair to a fixed-length similarity feature vector."""

    def __init__(self, pos_pairs):
        self.pos_pairs = tuple(sorted(set(pos_pairs)))
        names = ["head_match"]
        names += [f"pos_pair={p}" for p in self.pos_pairs]
        names.append("pos_pair=other")
        names += list(_SIM_FEATURES)
        for role in ARGUMENT_ROLES:
            names.append(f"{role}_tf_cosine")
            names.append(f"{role}_both_present")
        names.append("bias")
        self.feature_names = tuple(names)
        self.feature_index = {name: k for k, name in enumerate(names)}

    @staticmethod
    def from_corpus(corpus):
        """Collect the POS-pair vocabulary from all mention pairs of a corpus."""
        tags = sorted({m.head_pos for d in corpus.documents for m in d.mentions})
        pairs = {pos_pair_key(a, b) for a in tags for b in tags}
        return FeatureExtractor(pairs)

    @staticmethod
    def from_feature_index(feature_index):
        """Rebuild an extractor from a saved feature name -> index map."""
        pairs = [
            name.split("=", 1)[1]
            for name in feature_index
            if name.startswith("pos_pair=") and name != "pos_pair=other"
        ]
        extractor = FeatureExtractor(pairs)
        if extractor.feature_index != dict(feature_index):
            raise ValueError("feature index map does not match this extractor layout")
        return extractor

    def __len__(self):
        return len(self.feature_names)

    def extract(self, a, b, resources):
        """Symmetric feature vector for mentions a and b."""
        out = np.zeros(len(self.feature_names))
        idx = self.feature_index
        if a.head_lemma == b.head_lemma:
            out[idx["head_match"]] = 1.0
        key = f"pos_pair={pos_pair_key(a.head_pos, b.head_pos)}"
        out[idx.get(key, idx["pos_pair=other"])] = 1.0
        out[idx["head_embedding_cosine"]] = _embedding_cosine(resources, a.head_lemma, b.head_lemma)
        out[idx["span_tf_cosine"]] = _tf_cosine(a.span_lemmas, b.span_lemmas)
        out[idx["synonym_jaccard"]] = _jaccard(
            resources.synonym_set(a.head_lemma), resources.synonym_set(b.head_lemma)
        )
        out[idx["context_tf_cosine"]] = _tf_cosine(a.context_lemmas, b.context_lemmas)
        for role in ARGUMENT_ROLES:
            la, lb = a.argument_lemmas(role), b.argument_lemmas(role)
            if la and lb:
                out[idx[f"{role}_both_present"]] = 1.0
                out[idx[f"{role}_tf_cosine"]] = _tf_cosine(la, lb)
        out[idx["bias"]] = 1.0
        return out


def _count_matrix(bags, counts=None):
    """Integer count vectors of the bags as CSR arrays (indptr, token ids,
    counts, number of distinct tokens), and the Euclidean norm of each,
    computed as count_cosine computes it.  A bag is a token sequence in which
    each occurrence counts 1, unless counts gives each bag's counts in the
    order of its tokens."""
    lengths = np.fromiter(map(len, bags), np.intp, len(bags))
    vocab = {}
    tokens = np.fromiter(
        (vocab.setdefault(tok, len(vocab)) for bag in bags for tok in bag), np.intp, lengths.sum()
    )
    if counts is not None:
        counts = np.fromiter((c for bag in counts for c in bag), np.float64, len(tokens))
    # one entry per (bag, token) pair, in bag order, holding its summed count
    keys, entry = np.unique(
        np.repeat(np.arange(len(bags)), lengths) * len(vocab) + tokens, return_inverse=True
    )
    values = np.bincount(entry, counts, len(keys))
    rows, tokens = np.divmod(keys, max(len(vocab), 1))
    indptr = np.searchsorted(rows, np.arange(len(bags) + 1))
    # the squares and their sums are small integers, exact in any order
    norms = np.sqrt(np.bincount(rows, values * values, len(bags)))
    return (indptr, tokens, values, len(vocab)), norms


def _selected(indptr, rows):
    """Number of the rows an index slice or array selects, and the position
    among them and the CSR position of each of their entries."""
    rows = np.arange(len(indptr) - 1)[rows]
    lengths = indptr[rows + 1] - indptr[rows]
    at = np.repeat(np.arange(len(rows)), lengths)
    return len(rows), at, np.arange(len(at)) + (indptr[rows] - np.cumsum(lengths) + lengths)[at]


def _dots(matrix, rows, cols):
    """Dot products of every (row, col) pair of count-matrix rows, as one
    dense float64 product over the distinct tokens the rows hold.  Every
    product and partial sum is a small integer, so each dot is exact."""
    indptr, tokens, values, n_tokens = matrix
    n_rows, row_at, row_entry = _selected(indptr, rows)
    n_cols, col_at, col_entry = _selected(indptr, cols)
    held, column = np.unique(tokens[row_entry], return_inverse=True)
    left = np.zeros((n_rows, len(held)))
    left[row_at, column] = values[row_entry]
    slot = np.full(n_tokens, -1)
    slot[held] = np.arange(len(held))
    column = slot[tokens[col_entry]]
    hit = column >= 0
    right = np.zeros((len(held), n_cols))
    right[column[hit], col_at[hit]] = values[col_entry[hit]]
    return left @ right


def _cosines(matrix, norms, rows, cols):
    """count_cosine of every (row, col) pair of count-matrix rows.

    The dot products are exact integers, so dot / (na * nb) rounds exactly
    as the scalar routine does.
    """
    dots = _dots(matrix, rows, cols)
    out = np.zeros(dots.shape)
    np.divide(dots, np.multiply.outer(norms[rows], norms[cols]), out=out, where=dots > 0)
    return np.minimum(out, 1.0, out=out)


def cosine_matrix(count_maps):
    """count_cosine of every pair of token -> count maps, as a dense matrix,
    computed BLOCK_ROWS rows at a time."""
    matrix, norms = _count_matrix(count_maps, [m.values() for m in count_maps])
    n = len(count_maps)
    out = np.empty((n, n))
    for start in range(0, n, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        out[rows] = _cosines(matrix, norms, rows, slice(None))
    return out


class PairFeatures:
    """The features of every pair of a fixed list of mentions, by blocks.

    Per-mention tables are built once; `values` and `pos_columns` then give
    the features of all pairs rows x cols (index slices or arrays into the
    mention list) as arrays equal to `FeatureExtractor.extract`, pair by pair.
    """

    def __init__(self, extractor, mentions, resources):
        idx = extractor.feature_index
        self.n_features = len(extractor)
        self.n = len(mentions)
        self.head_match = idx["head_match"]
        self.bias = idx["bias"]

        lemmas = sorted({m.head_lemma for m in mentions})
        lemma_id = {lemma: k for k, lemma in enumerate(lemmas)}
        self.lemma = np.array([lemma_id[m.head_lemma] for m in mentions], dtype=np.intp)
        self.vectors = np.array([resources.vector(lemma) for lemma in lemmas], dtype=np.float64)
        self.vector_norms = np.array([np.linalg.norm(v) for v in self.vectors])
        synonyms = [resources.synonym_set(lemma) for lemma in lemmas]
        self.synonyms, _ = _count_matrix(synonyms)
        self.synonym_sizes = np.array([len(s) for s in synonyms], dtype=np.int64)
        self.embedding_k = idx["head_embedding_cosine"]
        self.jaccard_k = idx["synonym_jaccard"]

        tags = sorted({m.head_pos for m in mentions})
        tag_id = {tag: k for k, tag in enumerate(tags)}
        self.tag = np.array([tag_id[m.head_pos] for m in mentions], dtype=np.intp)
        other = idx["pos_pair=other"]
        self.pos_table = np.array(
            [[idx.get(f"pos_pair={pos_pair_key(a, b)}", other) for b in tags] for a in tags],
            dtype=np.intp,
        ).reshape(len(tags), len(tags))

        bags = [
            (idx["span_tf_cosine"], [m.span_lemmas for m in mentions]),
            (idx["context_tf_cosine"], [m.context_lemmas for m in mentions]),
        ]
        self.present = []
        for role in ARGUMENT_ROLES:
            tokens = [m.argument_lemmas(role) for m in mentions]
            bags.append((idx[f"{role}_tf_cosine"], tokens))
            self.present.append(
                (idx[f"{role}_both_present"], np.array([bool(t) for t in tokens], dtype=bool))
            )
        self.bags = [(k, *_count_matrix(tokens)) for k, tokens in bags]

    def pos_columns(self, rows, cols):
        """Index of the POS-pair one-hot feature set for each pair."""
        return self.pos_table[np.ix_(self.tag[rows], self.tag[cols])]

    def values(self, rows, cols):
        """Yield (feature index, values over rows x cols) for every feature
        except the POS-pair one-hot and the bias, one feature at a time."""
        la, lb = self.lemma[rows], self.lemma[cols]
        yield self.head_match, np.equal.outer(la, lb).astype(np.float64)
        # computed once per distinct head lemma pair, then gathered to mentions
        ra, ia = np.unique(la, return_inverse=True)
        rb, ib = np.unique(lb, return_inverse=True)
        pick = np.ix_(ia, ib)
        # a stack of vector-vector products runs np.dot's routine on each pair,
        # so the dot products equal extract's bit for bit (a matrix product
        # would round differently)
        dots = np.matmul(self.vectors[ra][:, None, None, :], self.vectors[rb][None, :, :, None])
        scale = np.multiply.outer(self.vector_norms[ra], self.vector_norms[rb])
        cosine = np.zeros(scale.shape)
        np.divide(dots[:, :, 0, 0], scale, out=cosine, where=scale > 0)
        yield self.embedding_k, np.clip(cosine, 0.0, 1.0, out=cosine)[pick]
        shared = _dots(self.synonyms, ra, rb)
        union = np.add.outer(self.synonym_sizes[ra], self.synonym_sizes[rb]) - shared
        yield self.jaccard_k, (shared / union)[pick]
        for k, matrix, norms in self.bags:
            yield k, _cosines(matrix, norms, rows, cols)
        for k, present in self.present:
            yield k, np.logical_and.outer(present[rows], present[cols]).astype(np.float64)

    def gather(self, a, b):
        """Feature matrix of the pairs (a[p], b[p]), one row per pair, each
        row equal to `extract` of that pair.  Each block of rows is scored
        only against the columns its pairs use."""
        out = np.zeros((len(a), self.n_features))
        out[:, self.bias] = 1.0
        for start in range(0, self.n, BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            sel = np.flatnonzero((a >= start) & (a < start + BLOCK_ROWS))
            if not len(sel):
                continue
            ra = a[sel] - start
            cols, cb = np.unique(b[sel], return_inverse=True)
            out[sel, self.pos_columns(rows, cols)[ra, cb]] = 1.0
            for k, values in self.values(rows, cols):
                out[sel, k] = values[ra, cb]
        return out

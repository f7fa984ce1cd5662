"""Pairwise feature vectors for mention pairs.

Every feature is a nonnegative similarity in [0, 1] or a 0/1 indicator, so a
learned positive weight always means "more alike".  The POS-pair block is a
one-hot over unordered tag pairs observed when the extractor was built, with
an extra bucket for pairs never seen there.  Role features come with a
companion both-present indicator because a 0 cosine is ambiguous between
"dissimilar arguments" and "no arguments at all".

`FeatureExtractor.extract` scores one pair and is the reference.
`PairFeatures` computes the same values for a list of pairs (i[p], j[p]),
one way for every consumer: `pair_values`.  Lemma and tag ids are compared
as arrays, and the embedding cosine and synonym Jaccard are computed once
per distinct head lemma pair (`lemma_values`).  The eight bags (span,
context and the six roles) are one table of integer counts over (bag,
lemma) tokens, kept as CSR arrays and as one inverted index (postings) of
those tokens: a lemma in two bags is two tokens, so no token of one bag
matches one of another.  A pair's tf-cosine dot products sum a product of
counts per token that it shares, into the bag of that token: `dots` looks
each token of i[p] up in the postings of j[p], and `candidates` joins a
block of rows against the postings of the later mentions, which also finds
the pairs that share a token.  Every product and partial sum of a dot
product is a small integer, so the dots are exact in any order of
summation, and the divide, the clamp and the norms are `count_cosine`'s.  Each value therefore equals `extract`'s bit
for bit, so a model trained on these features is the model trained on
`extract`'s.  `gather` scores the training pairs BLOCK_ROWS rows at a time;
the walk of trained priors and the agglomerative baseline
(`PairwiseModel.scored_pairs`) scores the candidates of `row_blocks`,
which `batched` gathers over blocks.  `pair_blocks` walks every pair of
`row_blocks`, for uniform priors.  `cosine_matrix` joins blocks of token
-> count maps against their postings in the same way.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .corpus import ARGUMENT_ROLES, count_cosine

_SIM_FEATURES = ("head_embedding_cosine", "span_tf_cosine", "synonym_jaccard", "context_tf_cosine")

# Mention rows walked at a time.  A block of the candidate walk joins its
# rows' tokens and head lemmas against the postings of the later mentions,
# and a scored batch holds about BLOCK_ROWS * n candidates; a block of
# `gather` or `cosine_matrix` holds at most its rows' pairs with all n
# mentions.  Each needs O(BLOCK_ROWS * n * tokens per mention) extra memory,
# never O(n * n) nor O(n * vocabulary).
BLOCK_ROWS = 64


def row_blocks(bounds, across):
    """Yield (rows, hi) per block of at most BLOCK_ROWS rows: the pairs i < j
    of row i are those with j < hi[i - rows.start], every later mention if
    across, else the later mentions of i's document."""
    n = bounds[-1]
    hi = np.full(n, n) if across else np.repeat(bounds[1:], np.diff(bounds))
    for start in range(0, n, BLOCK_ROWS):
        yield slice(start, min(start + BLOCK_ROWS, n)), hi[start:start + BLOCK_ROWS]


def pair_blocks(bounds, across):
    """Yield (rows, cols, r, c) per block of row_blocks: its pairs i < j are
    (rows.start + r, cols.start + c), all of them if across, else only those
    within a document, with cols ending at the last row's document."""
    for rows, hi in row_blocks(bounds, across):
        r, c = np.triu_indices(rows.stop - rows.start, 1, hi[-1] - rows.start)
        if not across:
            keep = rows.start + c < hi[r]
            r, c = r[keep], c[keep]
        yield rows, slice(rows.start, hi[-1]), r, c


def batched(parts, n):
    """Concatenate consecutive (i, j, dots) candidate arrays of row blocks
    into batches of at least BLOCK_ROWS * n pairs, the last one possibly
    smaller: a batch is scored at once, and holds no more than about a block
    of every pair."""
    held, size = [], 0
    for part in parts:
        held.append(part)
        size += len(part[0])
        if size >= BLOCK_ROWS * n:
            yield _joined(held)
            size = 0
    if held:
        yield _joined(held)


def _joined(held):
    """The parts' arrays concatenated, emptying held so that the parts can
    be freed while the batch is scored."""
    batch = held[0] if len(held) == 1 else tuple(np.concatenate(x) for x in zip(*held))
    held.clear()
    return batch


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
    """Integer count vectors of the bags as CSR arrays: the row pointer, and
    the row (bag index), token id and summed count of each entry, bag by bag
    with token ids ascending; and the distinct tokens in id order.  A bag is
    a token sequence in which each occurrence counts 1, unless counts gives
    each bag's counts in the order of its tokens."""
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
    return np.searchsorted(rows, np.arange(len(bags) + 1)), rows, tokens, values, list(vocab)


def _ranges(lo, hi):
    """Owner q and value of every integer of the ranges [lo[q], hi[q]), range
    by range."""
    lengths = hi - lo
    owner = np.repeat(np.arange(len(lo)), lengths)
    return owner, np.arange(len(owner)) + (lo - np.cumsum(lengths) + lengths)[owner]


class _Postings:
    """Inverted index of (id, mention) entries, each with a count: the
    mentions that hold each id, ascending."""

    def __init__(self, ids, mentions, n, counts):
        keys = ids * n + mentions
        order = np.argsort(keys)
        self.n = n
        self.keys, self.mentions, self.counts = keys[order], mentions[order], counts[order]

    def within(self, ids, lo, hi):
        """Query q and posting position of every mention of ids[q] in the
        range [lo[q], hi[q]), query by query, mentions ascending."""
        base = ids * self.n
        return _ranges(np.searchsorted(self.keys, base + lo), np.searchsorted(self.keys, base + hi))

    def count(self, ids, mentions):
        """Count of each entry (ids[p], mentions[p]), 0 for an absent one."""
        query = ids * self.n + mentions
        at = np.minimum(np.searchsorted(self.keys, query), len(self.keys) - 1)
        return np.where(self.keys[at] == query, self.counts[at], 0.0)


def cosine_matrix(count_maps):
    """count_cosine of every pair of token -> count maps, as a dense matrix,
    computed BLOCK_ROWS rows at a time.  A block's dot products sum a product
    of counts per token that a pair shares, read off the postings: small
    integers, exact in any order."""
    indptr, owner, tokens, counts, _ = _count_matrix(count_maps, [m.values() for m in count_maps])
    n = len(count_maps)
    # the squares and their sums are small integers, exact in any order
    norms = np.sqrt(np.bincount(owner, counts * counts, n))
    postings = _Postings(tokens, owner, n, counts)
    out = np.empty((n, n))
    for start in range(0, n, BLOCK_ROWS):
        rows = np.arange(start, min(start + BLOCK_ROWS, n))
        q, entry = _ranges(indptr[rows], indptr[rows + 1])
        at, post = postings.within(tokens[entry], 0, n)
        products = counts[entry[at]] * postings.counts[post]
        dots = np.bincount(q[at] * n + postings.mentions[post], products, len(rows) * n)
        dots = dots.reshape(len(rows), n)
        block = np.zeros(dots.shape)
        np.divide(dots, np.multiply.outer(norms[rows], norms), out=block, where=dots > 0)
        out[rows] = np.minimum(block, 1.0, out=block)
    return out


class PairFeatures:
    """The features of pairs of a fixed list of mentions, for lists of pairs.

    Every table is built in the constructor, and none changes later.  The
    eight bags (span, context and the six roles, `bag_features` in that
    order) are one CSR count table of (bag, lemma) tokens, so that no token
    of one bag matches one of another; token_bag gives each token's bag,
    norms the norm of each (mention, bag) count vector, present whether
    each mention holds each role (`present_features`), and postings the
    mentions that hold each token.  `pair_values` then gives the features
    of the pairs (i[p], j[p]) (indexes into the mention list) as arrays
    equal to `FeatureExtractor.extract`, pair by pair, and `gather` as a
    feature matrix.  `candidates` lists the pairs of a row block that an
    index join finds.
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
        self.lemma_postings = _Postings(self.lemma, np.arange(self.n), self.n, np.ones(self.n))
        self.vectors = np.array([resources.vector(lemma) for lemma in lemmas], dtype=np.float64)
        self.vector_norms = np.array([np.linalg.norm(v) for v in self.vectors])
        synonyms = [resources.synonym_set(lemma) for lemma in lemmas]
        indptr, owner, token, count, _ = _count_matrix(synonyms)
        self.synonyms = indptr, token
        # a synonym set holds each lemma once: its size is its number of entries
        self.synonym_sizes = np.diff(indptr)
        self.synonym_postings = _Postings(token, owner, len(lemmas), count)
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

        self.bag_features = [idx["span_tf_cosine"], idx["context_tf_cosine"]]
        self.bag_features += [idx[f"{role}_tf_cosine"] for role in ARGUMENT_ROLES]
        self.present_features = [idx[f"{role}_both_present"] for role in ARGUMENT_ROLES]
        n_bags = len(self.bag_features)
        role_bag = {role: b for b, role in enumerate(ARGUMENT_ROLES, 2)}
        self.indptr, mention, self.token, self.count, tokens = _count_matrix([
            [(0, t) for t in m.span_lemmas] + [(1, t) for t in m.context_lemmas]
            + [(role_bag[r], t) for r, spans in m.arguments.items() for s in spans for t in s]
            for m in mentions
        ])
        self.token_bag = np.array([b for b, _ in tokens], dtype=np.intp)
        # the squares and their sums are small integers, exact in any order
        squares = np.bincount(mention * n_bags + self.token_bag[self.token],
                              self.count * self.count, self.n * n_bags)
        self.norms = np.sqrt(squares).reshape(self.n, n_bags)
        self.present = self.norms[:, 2:] > 0  # bags 2 on are the roles
        self.postings = _Postings(self.token, mention, self.n, self.count)

    def lemma_values(self, a, b):
        """Yield (feature index, values) of the head match, the embedding
        cosine and the synonym Jaccard of the head lemma id pairs (a[p],
        b[p])."""
        yield self.head_match, (a == b).astype(np.float64)
        # a stack of vector-vector products runs np.dot's routine on each pair,
        # so the dot products equal extract's bit for bit (a matrix product
        # would round differently)
        dots = np.matmul(self.vectors[a][:, None, :], self.vectors[b][:, :, None])[:, 0, 0]
        scale = self.vector_norms[a] * self.vector_norms[b]
        cosine = np.zeros(len(a))
        np.divide(dots, scale, out=cosine, where=scale > 0)
        yield self.embedding_k, np.clip(cosine, 0.0, 1.0, out=cosine)
        indptr, tokens = self.synonyms
        at, entry = _ranges(indptr[a], indptr[a + 1])
        shared = np.bincount(at, self.synonym_postings.count(tokens[entry], b[at]), len(a))
        yield self.jaccard_k, shared / (self.synonym_sizes[a] + self.synonym_sizes[b] - shared)

    def candidates(self, rows, hi, reach, joined):
        """The candidate pairs of a block of rows and their bag dot products:
        sorted canonical pairs (i, j), with i < j < hi[i - rows.start], that
        share a token in a bag marked in joined (a boolean per bag of
        bag_features) or, unless reach is None, whose head lemma pair is
        marked in reach, a triple (ra, rb, boolean table over head lemma ids
        ra x rb) with ra holding every row's lemma and rb every lemma of the
        columns; and the pairs x bags dot products of their count vectors.
        The dots sum a product of counts per token the pair shares, read
        off the postings: small integers, exact in any order."""
        rows = np.arange(self.n)[rows]
        lo = rows + 1
        q, entry = _ranges(self.indptr[rows], self.indptr[rows + 1])
        at, post = self.postings.within(self.token[entry], lo[q], hi[q])
        shared = rows[q[at]] * self.n + self.postings.mentions[post]
        bag = self.token_bag[self.token[entry[at]]]
        products = self.count[entry[at]] * self.postings.counts[post]
        found = [shared[joined[bag]]]
        if reach is not None:
            ra, rb, table = reach
            a, b = np.nonzero(table)
            ia = np.searchsorted(ra, self.lemma[rows])
            q, p = _ranges(np.searchsorted(a, ia), np.searchsorted(a, ia, "right"))
            at, post = self.lemma_postings.within(rb[b[p]], lo[q], hi[q])
            found.append(rows[q[at]] * self.n + self.lemma_postings.mentions[post])
        # distinct pairs, sorted: np.unique costs more on arrays this small
        pairs = np.sort(np.concatenate(found))
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]
        at = np.searchsorted(pairs, shared)
        hit = at < len(pairs)
        hit[hit] = pairs[at[hit]] == shared[hit]
        n_bags = len(self.bag_features)
        dots = np.bincount(at[hit] * n_bags + bag[hit], products[hit], len(pairs) * n_bags)
        # float even when there is nothing to count, where bincount gives ints
        dots = dots.astype(np.float64, copy=False).reshape(len(pairs), n_bags)
        return *np.divmod(pairs, self.n), dots

    def pair_values(self, i, j, dots):
        """Yield (feature index, values) of the pairs (i[p], j[p]) for every
        feature except the POS-pair one-hot and the bias, one feature at a
        time, each value equal to `extract`'s for that pair, given the pairs
        x bags dot products of their count vectors (`dots`, or those of
        `candidates`): the head lemma features, the bags' tf-cosines, then
        the roles' both-present indicators."""
        n_lemmas = len(self.vectors)
        lemma_pairs, inverse = np.unique(
            self.lemma[i] * n_lemmas + self.lemma[j], return_inverse=True
        )
        for k, values in self.lemma_values(*np.divmod(lemma_pairs, n_lemmas)):
            yield k, values[inverse]
        # the cosines overwrite the dots, which are 0 where they stay 0
        scale = self.norms[i]
        scale *= self.norms[j]
        cosine = np.divide(dots, scale, out=dots, where=dots > 0)
        np.minimum(cosine, 1.0, out=cosine)
        for b, k in enumerate(self.bag_features):
            yield k, cosine[:, b]
        both = (self.present[i] & self.present[j]).astype(np.float64)
        for r, k in enumerate(self.present_features):
            yield k, both[:, r]

    def dots(self, i, j):
        """The pairs x bags dot products of the count vectors of the pairs
        (i[p], j[p]): a product of counts per token of i[p] that j[p] also
        holds, read off the postings; small integers, exact in any order."""
        at, entry = _ranges(self.indptr[i], self.indptr[i + 1])
        token = self.token[entry]
        products = self.count[entry] * self.postings.count(token, j[at])
        n_bags = len(self.bag_features)
        dots = np.bincount(at * n_bags + self.token_bag[token], products, len(i) * n_bags)
        # float even when there is nothing to count, where bincount gives ints
        return dots.astype(np.float64, copy=False).reshape(len(i), n_bags)

    def gather(self, a, b):
        """Feature matrix of the pairs (a[p], b[p]), one row per pair, each
        row equal to `extract` of that pair, scored BLOCK_ROWS rows of a at
        a time."""
        out = np.zeros((len(a), self.n_features))
        out[:, self.bias] = 1.0
        for start in range(0, self.n, BLOCK_ROWS):
            sel = np.flatnonzero((a >= start) & (a < start + BLOCK_ROWS))
            i, j = a[sel], b[sel]
            out[sel, self.pos_table[self.tag[i], self.tag[j]]] = 1.0
            for k, values in self.pair_values(i, j, self.dots(i, j)):
                out[sel, k] = values
        return out

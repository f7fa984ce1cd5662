"""Data model and ingestion for documents, event mentions, and lexical resources.

A corpus file is JSON lines, one document object per line:

    {"doc_id": ..., "seminal_event_id": ..., "mentions": [{"mention_id": ...,
     "head_lemma": ..., "head_pos": ..., "span_lemmas": [...],
     "context_lemmas": [...], "arguments": {"participant": [["..."], ...]}}, ...]}

Gold coreference chains may appear as a footer line ``{"gold_chains":
[[mention_id, ...], ...]}`` or in a sidecar file with the same object.  A
mention outside every chain is a singleton of the gold partition, just as a
one-mention chain is.
Documents may come in any order: a Corpus lists them by doc_id and indexes
mentions in the canonical (doc_id, order_index) order.

Every file the package opens goes through this module: `read_lines` and
`read_json` read inputs, `write_text` and `write_json` write outputs, and each
turns an OS error into an InputError that names the path.  `located` names
the source of every other input error: parsers state only the fault, and
their callers run them inside `located(path)`, or `located(f"{path}: line
{n}")` for one line of a line-based file.

`load_corpus` checks each mention object in one pass: its fields' JSON
types in a fixed order, then the Mention's own invariants as it is built.
It builds one Corpus from the documents and the gold chains; a fault in
the documents names their line or the file, and a fault in the gold chains
names the footer line or the sidecar they came from.

Each type checks its invariants and derives its fields when it is built, so
its constructor is the one way to make it: a Document sorts its mentions by
order_index, and a Corpus lays out its mentions.  A Document derives its
tf_vector on first use (pair training and document similarity), since
scoring, the lemma baseline and the table models never read it.  All types
are immutable and safe to share across sampler chains.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

import numpy as np

from .errors import InputError
from .links import ClusterAssignment

ARGUMENT_ROLES = ("participant", "time", "location", "srl_arg0", "srl_arg1", "srl_arg2")


@dataclass(frozen=True)
class Mention:
    """One event mention: the head of an event action plus its argument spans."""

    mention_id: str
    doc_id: str
    order_index: int
    head_lemma: str
    head_pos: str
    span_lemmas: tuple[str, ...]
    context_lemmas: tuple[str, ...]
    # role -> tuple of argument mentions, each a tuple of lemmas
    arguments: dict[str, tuple[tuple[str, ...], ...]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.span_lemmas:
            raise InputError(f"mention {self.mention_id!r}: span_lemmas is empty")
        if self.head_lemma not in self.span_lemmas:
            raise InputError(
                f"mention {self.mention_id!r}: head lemma {self.head_lemma!r} "
                "does not occur in span_lemmas"
            )
        if self.order_index < 0:
            raise InputError(f"mention {self.mention_id!r}: negative order_index")
        for role in self.arguments:
            if role not in ARGUMENT_ROLES:
                raise InputError(
                    f"mention {self.mention_id!r}: unknown argument role {role!r}"
                )

    def argument_lemmas(self, role):
        """All lemmas of the given role, flattened over its argument mentions."""
        return [tok for span in self.arguments.get(role, ()) for tok in span]


@dataclass(frozen=True)
class Document:
    """The event mentions of one source document, sorted by order_index."""

    doc_id: str
    seminal_event_id: str
    mentions: tuple[Mention, ...]

    def __post_init__(self):
        mentions = tuple(sorted(self.mentions, key=attrgetter("order_index")))
        orders = [m.order_index for m in mentions]
        if orders != list(range(len(mentions))):
            raise InputError(
                f"document {self.doc_id!r}: mention order_index values must be "
                f"0..{len(mentions) - 1} without gaps, got {orders}"
            )
        for m in mentions:
            if m.doc_id != self.doc_id:
                raise InputError(
                    f"mention {m.mention_id!r} carries doc_id {m.doc_id!r} "
                    f"inside document {self.doc_id!r}"
                )
        object.__setattr__(self, "mentions", mentions)

    @cached_property
    def tf_vector(self) -> dict[str, int]:
        """token -> count over all mention spans and argument spans in the document"""
        tf = {}
        for m in self.mentions:
            for tok in m.span_lemmas:
                tf[tok] = tf.get(tok, 0) + 1
            for role in m.arguments:
                for span in m.arguments[role]:
                    for tok in span:
                        tf[tok] = tf.get(tok, 0) + 1
        return tf


class GoldError(InputError):
    """A gold chain names an unknown mention, or one that another chain holds."""


@dataclass(frozen=True)
class Corpus:
    """Documents in doc_id order, and the canonical mention layout over them.

    The canonical order lists mentions by (doc_id, order_index); priors,
    samplers, training pairs, baselines and clusterings index mentions by
    their position in it.  mention_ids holds the ids in that order, and
    bounds the index of each document's first mention, then n.  Doc and
    mention ids are unique, and there is at least one mention.  gold holds
    the gold chains as frozensets of known mention ids, each id in at most
    one chain, or is None without gold; a fault in them is a GoldError.
    """

    documents: tuple[Document, ...]
    gold: tuple[frozenset[str], ...] | None = None

    def __post_init__(self):
        documents = tuple(sorted(self.documents, key=lambda d: d.doc_id))
        for d, e in zip(documents, documents[1:]):
            if d.doc_id == e.doc_id:
                raise InputError(f"duplicate doc_id {d.doc_id!r}")
        mentions = tuple(m for d in documents for m in d.mentions)
        ids = tuple(m.mention_id for m in mentions)
        object.__setattr__(self, "documents", documents)
        object.__setattr__(self, "_mentions", mentions)
        object.__setattr__(self, "mention_ids", ids)
        by_id = dict(zip(ids, mentions))
        if len(by_id) < len(ids):
            duplicate = next(mid for mid, n in Counter(ids).items() if n > 1)
            raise InputError(f"duplicate mention_id {duplicate!r}")
        object.__setattr__(self, "_by_id", by_id)
        if not ids:
            raise InputError("the corpus holds no mentions")
        sizes = [len(d.mentions) for d in documents]
        object.__setattr__(self, "bounds", tuple(itertools.accumulate(sizes, initial=0)))
        if self.gold is not None:
            object.__setattr__(self, "gold", tuple(map(frozenset, self.gold)))
        covered = set()
        for mid in itertools.chain.from_iterable(self.gold or ()):
            if mid not in by_id:
                raise GoldError(f"gold chain references unknown mention {mid!r}")
            if mid in covered:
                raise GoldError(f"mention {mid!r} appears in two gold chains")
            covered.add(mid)

    def mention(self, mention_id) -> Mention:
        return self._by_id[mention_id]

    def mentions_in_order(self):
        """All mentions in the canonical order."""
        return self._mentions

    def doc_of(self):
        """Array of the document index of each mention, in the canonical order."""
        return np.repeat(np.arange(len(self.documents)), np.diff(self.bounds))

    def span_vocabulary(self):
        """Distinct span lemmas across the corpus (the likelihood vocabulary)."""
        return sorted({tok for m in self._mentions for tok in m.span_lemmas})


def gold_partition(corpus: Corpus) -> ClusterAssignment:
    """The gold clustering of corpus.mention_ids: its chains, and a singleton
    for each mention outside every chain."""
    if corpus.gold is None:
        raise InputError("corpus has no gold chains")
    label = {mid: k for k, chain in enumerate(corpus.gold) for mid in chain}
    # a mention outside every chain is labelled by its own id
    return ClusterAssignment(corpus.mention_ids, [label.get(m, m) for m in corpus.mention_ids])


# ---------------------------------------------------------------------------
# Loading / saving
# ---------------------------------------------------------------------------


_is_str = str.__instancecheck__  # isinstance(v, str), mapped without a lambda


def _is_strings(value):
    return isinstance(value, list) and all(map(_is_str, value))


def _is_spans(value):
    return isinstance(value, list) and all(map(_is_strings, value))


def _fault(obj, key, shape):
    """The InputError for obj[key] being absent or lacking the named shape."""
    if key not in obj:
        return InputError(f"{key} is missing")
    return InputError(f"{key} must be {shape}, got {obj[key]!r:.60}")


def _parse_mention(obj, doc_id, fallback_order):
    """One mention object, its fields checked in the order their faults are
    reported: arguments, then the fields in Mention's order."""
    if not isinstance(obj, dict):
        raise InputError(f"a mention must be an object, got {obj!r:.60}")
    get = obj.get
    arguments = get("arguments", {})
    if not isinstance(arguments, dict):
        raise _fault(obj, "arguments", "an object")
    spans_of = {}
    for role, spans in arguments.items():
        if not _is_spans(spans):
            raise _fault(arguments, role, "a list of lists of strings")
        spans_of[role] = tuple(map(tuple, spans))
    mention_id = get("mention_id")
    if not isinstance(mention_id, str):
        raise _fault(obj, "mention_id", "a string")
    order_index = get("order_index", fallback_order)
    if type(order_index) is not int:  # a JSON true or false is no integer
        raise _fault(obj, "order_index", "an integer")
    head_lemma = get("head_lemma")
    if not isinstance(head_lemma, str):
        raise _fault(obj, "head_lemma", "a string")
    head_pos = get("head_pos")
    if not isinstance(head_pos, str):
        raise _fault(obj, "head_pos", "a string")
    span_lemmas = get("span_lemmas")
    if not _is_strings(span_lemmas):
        raise _fault(obj, "span_lemmas", "a list of strings")
    context_lemmas = get("context_lemmas", [])
    if not _is_strings(context_lemmas):
        raise _fault(obj, "context_lemmas", "a list of strings")
    return Mention(
        mention_id, doc_id, order_index, head_lemma, head_pos, tuple(span_lemmas),
        tuple(context_lemmas), spans_of,
    )


class located:
    """Name the source of any InputError raised inside: prefix `where: `.

    A plain class is cheaper to enter than a generator context manager, and
    the readers enter one per input line.
    """

    __slots__ = ("where",)

    def __init__(self, where):
        self.where = where

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, InputError):
            raise InputError(f"{self.where}: {exc}") from exc


def read_lines(path):
    """The lines of an input file, which must be UTF-8, read one at a time."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def read_json(path):
    """The JSON value of a whole input file, which must be UTF-8."""
    text = "".join(read_lines(path))
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed, or an integer of over 4,300 digits
        raise InputError(f"{path}: not valid JSON ({exc})") from exc


def write_text(path, text):
    """Write text to an output file as UTF-8, replacing what it held."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def write_json(path, obj):
    """Write obj as indented JSON with sorted keys and a final newline."""
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_corpus(path, gold_path=None) -> Corpus:
    """Load a JSON-lines corpus file, validating all invariants."""
    documents = []
    gold, gold_source = None, path
    for line_no, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        with located(f"{path}: line {line_no}"):
            try:
                obj = json.loads(line)
            except ValueError as exc:  # malformed, or an integer of over 4,300 digits
                raise InputError(f"not valid JSON ({getattr(exc, 'msg', exc)})") from exc
            if not isinstance(obj, dict):
                raise InputError(f"expected a JSON object, got {obj!r:.60}")
            if "doc_id" in obj:
                doc_id = obj["doc_id"]
                if not isinstance(doc_id, str):
                    raise _fault(obj, "doc_id", "a string")
                seminal = obj.get("seminal_event_id")
                if not isinstance(seminal, str):
                    raise _fault(obj, "seminal_event_id", "a string")
                mentions = obj.get("mentions", [])
                if not isinstance(mentions, list):
                    raise _fault(obj, "mentions", "a list")
                mentions = [_parse_mention(m, doc_id, k) for k, m in enumerate(mentions)]
                documents.append(Document(doc_id, seminal, mentions))
            elif "gold_chains" in obj:
                if gold is not None:
                    raise InputError("duplicate gold_chains entry")
                gold = obj["gold_chains"]
                if not _is_spans(gold):
                    raise _fault(obj, "gold_chains", "a list of lists of strings")
                gold_source = f"{path}: line {line_no}"
            else:
                raise InputError("object is neither a document nor gold_chains")
    if gold_path is not None:
        obj = read_json(gold_path)
        gold_source = gold_path
        obj = obj if isinstance(obj, dict) else {"gold_chains": obj}
        gold = obj.get("gold_chains")
        if not _is_spans(gold):
            with located(gold_path):
                raise _fault(obj, "gold_chains", "a list of lists of strings")
    # the documents were validated at their lines; a fault in the gold chains
    # names the footer line or the sidecar they came from, any other the file
    try:
        return Corpus(tuple(documents), gold)
    except InputError as exc:
        where = gold_source if isinstance(exc, GoldError) else path
        raise InputError(f"{where}: {exc}") from exc


def _mention_to_obj(m: Mention):
    return {
        "mention_id": m.mention_id,
        "order_index": m.order_index,
        "head_lemma": m.head_lemma,
        "head_pos": m.head_pos,
        "span_lemmas": list(m.span_lemmas),
        "context_lemmas": list(m.context_lemmas),
        "arguments": {role: [list(s) for s in m.arguments[role]] for role in sorted(m.arguments)},
    }


def save_corpus(corpus: Corpus, path):
    """Write a corpus in the canonical JSON-lines form (round-trip stable)."""
    objs = [
        {
            "doc_id": d.doc_id,
            "seminal_event_id": d.seminal_event_id,
            "mentions": [_mention_to_obj(m) for m in d.mentions],
        }
        for d in corpus.documents
    ]
    if corpus.gold is not None:
        objs.append({"gold_chains": sorted(sorted(chain) for chain in corpus.gold)})
    write_text(path, "".join(json.dumps(obj) + "\n" for obj in objs))


def load_embeddings(path):
    """Word vectors, one line per lemma: lemma followed by the vector entries."""
    vectors = {}
    dim = None
    # the cosines divide by norms: an overflowing norm would make them NaN
    with np.errstate(over="ignore"):
        for line_no, line in enumerate(read_lines(path), start=1):
            parts = line.split()
            if not parts:
                continue
            with located(f"{path}: line {line_no}"):
                try:
                    values = list(map(float, parts[1:]))
                except ValueError as exc:
                    raise InputError("bad vector entry") from exc
                if not all(map(math.isfinite, values)):
                    raise InputError("non-finite vector entry")
                vec = np.array(values, dtype=np.float64)
                if not math.isfinite(np.dot(vec, vec)):
                    raise InputError("vector norm overflows")
                if dim is None:
                    dim = len(values)
                elif len(values) != dim:
                    raise InputError(f"vector length {len(values)} != {dim}")
                vectors[parts[0]] = vec
    return vectors


def load_synonyms(path):
    """Synonym sets, one line per lemma: lemma TAB comma-separated synonyms."""
    synonyms = {}
    for line_no, line in enumerate(read_lines(path), start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        with located(f"{path}: line {line_no}"):
            lemma, tab, rest = line.partition("\t")
            if not tab:
                raise InputError("no TAB between the lemma and its synonyms")
            synonyms[lemma] = frozenset(s for s in rest.split(",") if s)
    return synonyms


@dataclass(frozen=True)
class LexicalResources:
    """Static lookup tables: word embeddings and synonym sets for head lemmas."""

    embeddings: dict[str, np.ndarray] = field(default_factory=dict)
    synonyms: dict[str, frozenset[str]] = field(default_factory=dict)
    dimension: int = field(init=False)  # the length of every vector; 300 without any

    def __post_init__(self):
        dims = {len(v) for v in self.embeddings.values()}
        if len(dims) > 1:
            raise InputError(f"embedding vectors have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "dimension", dims.pop() if dims else 300)

    @staticmethod
    def load(embeddings_path=None, synonyms_path=None):
        return LexicalResources(
            load_embeddings(embeddings_path) if embeddings_path else {},
            load_synonyms(synonyms_path) if synonyms_path else {},
        )

    def vector(self, lemma):
        """Embedding for a lemma; zero vector when the lemma is unknown."""
        vec = self.embeddings.get(lemma)
        if vec is None:
            return np.zeros(self.dimension)
        return vec

    def synonym_set(self, lemma):
        """Synonyms of a lemma, always including the lemma itself."""
        return self.synonyms.get(lemma, frozenset()) | {lemma}


# ---------------------------------------------------------------------------
# Document similarity
# ---------------------------------------------------------------------------


def doc_similarity(d: Document, d2: Document) -> float:
    """Cosine similarity of the document term-frequency vectors, in [0, 1]."""
    return count_cosine(d.tf_vector, d2.tf_vector)


def count_cosine(a, b):
    """Cosine of two token -> count maps, in [0, 1]; 0 when either is empty.

    Dot product and squared norms are integer sums, so the result is the
    same whichever way the products are accumulated.
    """
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(c * b[tok] for tok, c in a.items() if tok in b)
    if dot == 0:
        return 0.0
    na = math.sqrt(sum(c * c for c in a.values()))
    nb = math.sqrt(sum(c * c for c in b.values()))
    return min(1.0, dot / (na * nb))

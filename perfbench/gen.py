"""Seeded generator of ECB+-shaped event-coreference inputs.

A corpus has `topics` topics (seminal events), each with `docs_per_topic`
documents of `mentions_per_doc` mentions.  Topics are lexically disjoint: every
lemma carries its topic's prefix, so document similarity across topics is 0
and the number of link candidates per mention stays bounded as topics are
added.

Inside a topic, gold events come in pairs whose head lemmas form one group
of synonyms: one head shared by both events and two of each event's own.
The lemma baseline therefore merges the two events of a pair (shared head)
and splits each event over its synonyms.  Sharing exactly one head keeps the
lexical likelihood neutral about merging the pair, as in the bundled corpus.
Arguments, context and the span modifier tell the two events apart, and
seeded noise swaps a fixed number of them per document to the sibling event,
so no model scores a perfect CoNLL F1.  The noise counts and the document
layout do not depend on the seed; which mentions, heads, argument roles and
lemmas are picked does.

Outputs (written by `write_inputs`): `corpus.jsonl` with a gold_chains footer
line, `embeddings.txt` and `synonyms.txt`, in the formats `hddcrp` reads.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

GROUPS_PER_TOPIC = 2  # head-lemma groups; each is shared by two gold events
SINGLETONS_PER_DOC = 2
EMBEDDING_DIM = 16
ROLES = ("participant", "location", "time", "srl_arg0")


@dataclass(frozen=True)
class Shape:
    """Size of a generated corpus."""

    topics: int
    docs_per_topic: int
    mentions_per_doc: int

    @property
    def n_mentions(self):
        return self.topics * self.docs_per_topic * self.mentions_per_doc


@dataclass(frozen=True)
class Inputs:
    """Paths of the written files plus the generated gold, kept in memory."""

    corpus: Path
    embeddings: Path
    synonyms: Path
    mention_ids: tuple
    doc_of: dict  # mention id -> doc id
    topic_of: dict  # mention id -> seminal event id
    gold: tuple  # frozensets of mention ids, singletons included


def _event(t, e):
    return {
        "modifier": f"t{t}e{e}mod",
        "participant": [[f"t{t}e{e}p0"], [f"t{t}e{e}p1"]],
        "location": [[f"t{t}e{e}loc"]],
        "time": [[f"t{t}date"]],  # one date per topic, as in news about one event
        "srl_arg0": [[f"t{t}e{e}agent"]],
        "context": [f"t{t}e{e}c{k}" for k in range(4)],
    }


def _sibling(e):
    return e ^ 1  # events 2g and 2g+1 share head group g


def build(shape, seed):
    """Documents (as JSON-ready dicts), gold chains, embeddings and synonyms."""
    rng = random.Random(seed)
    n_events = 2 * GROUPS_PER_TOPIC
    n_event_mentions = shape.mentions_per_doc - SINGLETONS_PER_DOC
    if n_event_mentions < n_events:
        raise ValueError("mentions_per_doc too small for the event layout")
    # swapped modifiers, arguments and contexts per document
    n_noisy = max(1, n_event_mentions // 4)

    docs, chains, embeddings, synonyms = [], {}, {}, {}
    for t in range(shape.topics):
        events = [_event(t, e) for e in range(n_events)]
        shared_context = [f"t{t}c{k}" for k in range(6)]
        heads_of = {}
        for g in range(GROUPS_PER_TOPIC):
            heads = [f"t{t}g{g}h"]
            for e in (2 * g, 2 * g + 1):
                heads_of[e] = [heads[0], f"t{t}e{e}h1", f"t{t}e{e}h2"]
                heads += heads_of[e][1:]
            axis = [rng.gauss(0.0, 1.0) for _ in range(EMBEDDING_DIM)]
            for h in heads:
                embeddings[h] = _unit([a + 0.35 * rng.gauss(0.0, 1.0) for a in axis])
                synonyms[h] = [s for s in heads if s != h]
        # each event cycles through its heads in a seeded order that runs on
        # from one document to the next, so every head is used about equally
        head_cycle = {e: rng.sample(heads, len(heads)) for e, heads in heads_of.items()}
        used = {e: 0 for e in heads_of}
        for d in range(shape.docs_per_topic):
            doc_id = f"t{t:02d}d{d:02d}"
            # every event of the topic, in turn, so its documents stay alike
            slots = [k % n_events for k in range(n_event_mentions)]
            rng.shuffle(slots)
            swap_mod = set(rng.sample(range(n_event_mentions), n_noisy))
            swap_arg = set(rng.sample(range(n_event_mentions), n_noisy))
            swap_ctx = set(rng.sample(range(n_event_mentions), n_noisy))
            rows = []
            for k, e in enumerate(slots):
                ev, sib = events[e], events[_sibling(e)]
                head = head_cycle[e][used[e] % len(head_cycle[e])]
                used[e] += 1
                modifier = (sib if k in swap_mod else ev)["modifier"]
                arguments = {role: ev[role] for role in ROLES if rng.random() < 0.8}
                if k in swap_arg:
                    role = rng.choice(ROLES)
                    arguments[role] = sib[role]
                context = rng.sample((sib if k in swap_ctx else ev)["context"], 2)
                context.append(rng.choice(shared_context))
                pos = rng.choice(("NN", "VB"))
                rows.append((e, head, pos, [modifier, head], context, arguments))
            for s in range(SINGLETONS_PER_DOC):
                head = f"{doc_id}s{s}"
                embeddings[head] = _unit([rng.gauss(0.0, 1.0) for _ in range(EMBEDDING_DIM)])
                arguments = {"participant": [[f"{head}p"]]}
                context = [f"{head}c", rng.choice(shared_context)]
                rows.append((None, head, "NN", [head], context, arguments))
            # singletons at seeded positions inside the document
            order = list(range(len(rows)))
            rng.shuffle(order)
            mentions = []
            for k, r in enumerate(order):
                e, head, pos, span, context, arguments = rows[r]
                mid = f"{doc_id}-m{k}"
                if e is not None:
                    chains.setdefault(f"t{t}e{e}", []).append(mid)
                mentions.append({
                    "mention_id": mid,
                    "order_index": k,
                    "head_lemma": head,
                    "head_pos": pos,
                    "span_lemmas": span,
                    "context_lemmas": context,
                    "arguments": {role: arguments[role] for role in sorted(arguments)},
                })
            docs.append({"doc_id": doc_id, "seminal_event_id": f"topic{t:02d}",
                         "mentions": mentions})
    gold_chains = sorted(sorted(c) for c in chains.values())
    return docs, gold_chains, embeddings, synonyms


def _unit(vec):
    norm = math.sqrt(sum(v * v for v in vec))
    return [v / norm for v in vec]


def write_inputs(shape, seed, out_dir):
    """Write the corpus, embeddings and synonyms for one seed into out_dir."""
    docs, gold_chains, embeddings, synonyms = build(shape, seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus = out / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc) + "\n")
        fh.write(json.dumps({"gold_chains": gold_chains}) + "\n")
    emb = out / "embeddings.txt"
    with open(emb, "w", encoding="utf-8") as fh:
        for lemma in sorted(embeddings):
            fh.write(lemma + " " + " ".join(repr(v) for v in embeddings[lemma]) + "\n")
    syn = out / "synonyms.txt"
    with open(syn, "w", encoding="utf-8") as fh:
        for lemma in sorted(synonyms):
            fh.write(f"{lemma}\t{','.join(synonyms[lemma])}\n")

    mention_ids, doc_of, topic_of = [], {}, {}
    for doc in docs:
        for m in doc["mentions"]:
            mention_ids.append(m["mention_id"])
            doc_of[m["mention_id"]] = doc["doc_id"]
            topic_of[m["mention_id"]] = doc["seminal_event_id"]
    covered = {mid for chain in gold_chains for mid in chain}
    gold = [frozenset(c) for c in gold_chains]
    gold += [frozenset([mid]) for mid in mention_ids if mid not in covered]
    return Inputs(corpus, emb, syn, tuple(mention_ids), doc_of, topic_of, tuple(gold))


def save_inputs(inputs, path):
    """Hand the generated inputs to a child process as JSON."""
    obj = {name: getattr(inputs, name) for name in Inputs.__dataclass_fields__}
    obj["gold"] = [sorted(p) for p in inputs.gold]
    Path(path).write_text(json.dumps(obj, default=str), encoding="utf-8")


def load_inputs(path):
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    for key in ("corpus", "embeddings", "synonyms"):
        obj[key] = Path(obj[key])
    obj["mention_ids"] = tuple(obj["mention_ids"])
    obj["gold"] = tuple(frozenset(p) for p in obj["gold"])
    return Inputs(**obj)

"""Regenerate the bundled data fixtures under src/hddcrp/data/.

    python3 scripts/generate_fixtures.py [OUT_DIR]

writes them to OUT_DIR instead when it is given.

The synthetic corpus has three topics (seminal events), two documents each,
40 mentions total.  Each topic holds two distinct gold events that share head
lemmas, so head matching alone over-merges them inside a topic; argument and
context features disambiguate.  Coreferent mentions also vary their heads
across synonyms, so head matching alone under-merges as well.  Event mention
spans carry one event-specific modifier plus the head: a merge of two event
mentions then always shares exactly one span word (the modifier for coreferent
pairs, the head for lemma-ambiguous ones), leaving the lexical likelihood
neutral between them so that only the learned distances can tell them apart.
"""

import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from hddcrp.corpus import Corpus, Document, Mention, save_corpus

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "hddcrp" / "data"

# per-event span modifier, argument sets, and context pools
EVENTS = {
    "A": dict(
        modifier="downtown",
        participant=[["crowd"], ["vendor"]],
        location=[["baghdad"]],
        time=[["monday"]],
        srl_arg0=[["militant"]],
        context=["market", "stall", "smoke", "casualty"],
    ),
    "B": dict(
        modifier="suicide",
        participant=[["diplomat"], ["guard"]],
        location=[["kabul"]],
        time=[["friday"]],
        srl_arg0=[["bomber"]],
        context=["embassy", "compound", "gate", "convoy"],
    ),
    "C": dict(
        modifier="coastal",
        participant=[["resident"], ["fisherman"]],
        location=[["chile"]],
        time=[["tuesday"]],
        srl_arg0=[["fault"]],
        context=["coast", "wave", "pacific", "village"],
    ),
    "D": dict(
        modifier="nuclear",
        participant=[["worker"], ["engineer"]],
        location=[["japan"]],
        time=[["march"]],
        srl_arg0=[["plate"]],
        context=["reactor", "plant", "meltdown", "coolant"],
    ),
    "E": dict(
        modifier="record",
        participant=[["google"], ["startup"]],
        location=[["california"]],
        time=[["january"]],
        srl_arg0=[["board"]],
        context=["valley", "cloud", "software", "billion"],
    ),
    "F": dict(
        modifier="rival",
        participant=[["microsoft"], ["studio"]],
        location=[["washington"]],
        time=[["june"]],
        srl_arg0=[["investor"]],
        context=["console", "gaming", "franchise", "antitrust"],
    ),
}

SINGLETONS = {
    "rally": (["union"], ["banner", "street"]),
    "protest": (["student"], ["campus", "sign"]),
    "ceasefire": (["army"], ["truce", "border"]),
    "drill": (["school"], ["siren", "classroom"]),
    "rescue": (["team"], ["helicopter", "debris"]),
    "evacuation": (["town"], ["shelter", "route"]),
    "lawsuit": (["firm"], ["court", "patent"]),
    "hearing": (["senate"], ["testimony", "chamber"]),
    "conference": (["press"], ["keynote", "stage"]),
    "recall": (["automaker"], ["defect", "airbag"]),
}

# doc_id -> (seminal_event_id, [(event or None, head), ...])
LAYOUT = {
    "doc01": ("ev-bombing", [("A", "bombing"), ("B", "bombing"), ("A", "blast"),
                             ("B", "attack"), ("A", "explosion"), (None, "rally"),
                             (None, "protest")]),
    "doc02": ("ev-bombing", [("A", "bombing"), ("B", "bombing"), ("A", "blast"),
                             ("B", "strike"), ("A", "explosion"), (None, "ceasefire")]),
    "doc03": ("ev-earthquake", [("C", "earthquake"), ("D", "earthquake"), ("C", "quake"),
                                ("D", "aftershock"), ("C", "tremor"), (None, "drill"),
                                (None, "rescue")]),
    "doc04": ("ev-earthquake", [("C", "earthquake"), ("D", "earthquake"), ("C", "quake"),
                                ("D", "aftershock"), ("C", "tremor"), (None, "evacuation")]),
    "doc05": ("ev-acquisition", [("E", "acquisition"), ("F", "acquisition"), ("E", "purchase"),
                                 ("F", "deal"), ("E", "takeover"), (None, "lawsuit"),
                                 (None, "hearing")]),
    "doc06": ("ev-acquisition", [("E", "acquisition"), ("F", "acquisition"), ("E", "purchase"),
                                 ("F", "deal"), ("F", "merger"), (None, "conference"),
                                 (None, "recall")]),
}


def build_synthetic():
    documents = []
    chains = {}
    for doc_id, (topic, rows) in LAYOUT.items():
        mentions = []
        for k, (event, head) in enumerate(rows):
            mid = f"{doc_id}-m{k}"
            if event is not None:
                spec = EVENTS[event]
                span = (spec["modifier"], head)
                arguments = {
                    "participant": tuple(tuple(a) for a in spec["participant"]),
                    "location": tuple(tuple(a) for a in spec["location"]),
                    "time": tuple(tuple(a) for a in spec["time"]),
                    "srl_arg0": tuple(tuple(a) for a in spec["srl_arg0"]),
                }
                context = tuple(spec["context"])
                chains.setdefault(event, []).append(mid)
            else:
                participant, context = SINGLETONS[head]
                span = (head,)
                arguments = {"participant": (tuple(participant),)}
                context = tuple(context)
            mentions.append(
                Mention(mid, doc_id, k, head, "NN", span, context, arguments)
            )
        documents.append(Document(doc_id, topic, mentions))
    return Corpus(tuple(documents), [c for _, c in sorted(chains.items())])


def build_tiny():
    rows = {
        "tiny1": [("bomb", "X"), ("blast", "Y"), ("bomb", "X")],
        "tiny2": [("bomb", "X"), ("talk", None), ("blast", "Y")],
    }
    documents = []
    chains = {}
    for doc_id, heads in rows.items():
        mentions = []
        for k, (head, chain) in enumerate(heads):
            mid = f"{doc_id}-m{k}"
            if chain is not None:
                chains.setdefault(chain, []).append(mid)
            mentions.append(Mention(mid, doc_id, k, head, "NN", (head,), (), {}))
        documents.append(Document(doc_id, "ev-tiny", mentions))
    return Corpus(tuple(documents), [c for _, c in sorted(chains.items())])


def unit(x, dim_a, dim_b, dims=8):
    vec = [0.0] * dims
    vec[dim_a] = x
    vec[dim_b] = math.sqrt(1.0 - x * x)
    return vec


EMBEDDINGS = {
    "bombing": unit(1.0, 0, 1),
    "blast": unit(0.9, 0, 1),
    "explosion": unit(0.85, 0, 1),
    "attack": unit(0.55, 0, 1),
    "strike": unit(0.5, 0, 1),
    "bombs": unit(0.62, 0, 1),
    "earthquake": unit(1.0, 2, 3),
    "quake": unit(0.92, 2, 3),
    "tremor": unit(0.88, 2, 3),
    "aftershock": unit(0.8, 2, 3),
    "acquisition": unit(1.0, 4, 5),
    "purchase": unit(0.9, 4, 5),
    "takeover": unit(0.88, 4, 5),
    "merger": unit(0.82, 4, 5),
    "deal": unit(0.75, 4, 5),
}

SYNONYMS = {
    "bombing": ["blast", "explosion", "bombs"],
    "blast": ["bombing", "explosion"],
    "explosion": ["bombing", "blast"],
    "attack": ["strike", "assault"],
    "strike": ["attack", "assault"],
    "earthquake": ["quake", "tremor"],
    "quake": ["earthquake", "tremor"],
    "tremor": ["earthquake", "quake"],
    "aftershock": ["tremor"],
    "acquisition": ["purchase", "takeover", "buyout"],
    "purchase": ["acquisition", "buyout"],
    "takeover": ["acquisition", "merger"],
    "merger": ["takeover", "consolidation"],
    "deal": ["agreement"],
}


def main(out=DATA):
    out = pathlib.Path(out)
    out.mkdir(parents=True, exist_ok=True)
    save_corpus(build_synthetic(), out / "synthetic_corpus.jsonl")
    save_corpus(build_tiny(), out / "tiny_corpus.jsonl")
    with open(out / "synthetic_embeddings.txt", "w", encoding="utf-8") as fh:
        for lemma in sorted(EMBEDDINGS):
            values = " ".join(repr(v) for v in EMBEDDINGS[lemma])
            fh.write(f"{lemma} {values}\n")
    with open(out / "synthetic_synonyms.txt", "w", encoding="utf-8") as fh:
        for lemma in sorted(SYNONYMS):
            fh.write(f"{lemma}\t{','.join(SYNONYMS[lemma])}\n")
    print(f"fixtures written to {out}")


if __name__ == "__main__":
    main(*sys.argv[1:2])

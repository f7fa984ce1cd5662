import dataclasses

import pytest

from hddcrp.corpus import Corpus, Document, LexicalResources, load_corpus
from hddcrp.data import (
    synthetic_corpus_path,
    synthetic_embeddings_path,
    synthetic_synonyms_path,
    tiny_corpus_path,
)
from hddcrp.pairwise import train

# outcome of each acceptance criterion test, nodeid -> "passed"/"failed"
_acceptance_outcomes = {}


@pytest.fixture(scope="session")
def synthetic_corpus():
    return load_corpus(synthetic_corpus_path())


@pytest.fixture(scope="session")
def replicated_corpus(synthetic_corpus):
    """The synthetic corpus four times over, with doc ids, mention ids and
    span lemmas renamed per copy, so that no two copies share a lemma."""
    copies = 4
    documents = []
    for k in range(copies):
        for doc in synthetic_corpus.documents:
            doc_id = f"c{k}-{doc.doc_id}"
            mentions = [
                dataclasses.replace(
                    m,
                    mention_id=f"c{k}-{m.mention_id}",
                    doc_id=doc_id,
                    head_lemma=f"{m.head_lemma}.{k}",
                    span_lemmas=tuple(f"{tok}.{k}" for tok in m.span_lemmas),
                )
                for m in doc.mentions
            ]
            documents.append(Document(doc_id, f"c{k}-{doc.seminal_event_id}", mentions))
    chains = tuple(
        frozenset(f"c{k}-{mid}" for mid in chain)
        for k in range(copies)
        for chain in synthetic_corpus.gold
    )
    return Corpus(tuple(documents), chains)


@pytest.fixture(scope="session")
def tiny_corpus():
    return load_corpus(tiny_corpus_path())


@pytest.fixture(scope="session")
def resources():
    return LexicalResources.load(synthetic_embeddings_path(), synthetic_synonyms_path())


@pytest.fixture(scope="session")
def trained_model(synthetic_corpus, resources):
    return train(synthetic_corpus, resources)


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for nodeid in sorted(_acceptance_outcomes):
        name = nodeid.split("::")[-1]
        verdict = "PASS" if _acceptance_outcomes[nodeid] == "passed" else "FAIL"
        terminalreporter.write_line(f"  {verdict}  {name}")

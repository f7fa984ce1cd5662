"""Paths to the bundled fixture data files."""

from pathlib import Path

_DATA = Path(__file__).parent / "data"


def synthetic_corpus_path():
    return _DATA / "synthetic_corpus.jsonl"


def tiny_corpus_path():
    return _DATA / "tiny_corpus.jsonl"


def synthetic_embeddings_path():
    return _DATA / "synthetic_embeddings.txt"


def synthetic_synonyms_path():
    return _DATA / "synthetic_synonyms.txt"

"""The workload generator is a pure function of its seed."""

from gen import Shape, write_inputs

SHAPE = Shape(topics=2, docs_per_topic=3, mentions_per_doc=8)
FILES = ("corpus.jsonl", "embeddings.txt", "synonyms.txt")


def _bytes(tmp_path, name, seed):
    write_inputs(SHAPE, seed, tmp_path / name)
    return [(tmp_path / name / f).read_bytes() for f in FILES]


def test_same_seed_writes_byte_identical_files(tmp_path):
    assert _bytes(tmp_path, "a", 7) == _bytes(tmp_path, "b", 7)


def test_another_seed_writes_other_inputs_of_the_same_shape(tmp_path):
    first = write_inputs(SHAPE, 7, tmp_path / "a")
    second = write_inputs(SHAPE, 8, tmp_path / "b")
    assert _bytes(tmp_path, "a", 7) != _bytes(tmp_path, "b", 8)
    assert len(first.mention_ids) == len(second.mention_ids) == SHAPE.n_mentions
    assert sorted(map(len, first.gold)) == sorted(map(len, second.gold))


def test_gold_partitions_the_generated_mentions(tmp_path):
    inputs = write_inputs(SHAPE, 3, tmp_path)
    covered = [m for part in inputs.gold for m in part]
    assert sorted(covered) == sorted(inputs.mention_ids)
    # topics are lexically disjoint: no gold cluster spans two topics
    assert all(len({inputs.topic_of[m] for m in part}) == 1 for part in inputs.gold)

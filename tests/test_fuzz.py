"""Seeded fuzzing of every input file the command line reads.

Each case takes one valid input file (corpus, gold sidecar, embeddings,
synonyms, a command's config, distance model or prediction), mutates it and
runs one command that reads it through cli.main in this process.  The
mutations are type swaps, deleted keys, truncated lines, non-finite numbers
and bytes that are not UTF-8.  A case may exit 0 (harmless input), 2 (bad
input) or 3 (universe mismatch), never 1 (an internal error).  Every sample
runs one chain of two sweeps with --jobs 1, given as flags, which beat any
config value, so no case starts a worker process or runs long.
"""

import copy
import json
import math
import random

import pytest

from hddcrp.cli import main
from hddcrp.data import tiny_corpus_path

SEED = 12
RANDOM_CASES = 24  # seeded random mutations per input file

# what a type swap puts in: every JSON type, out-of-range and non-finite numbers
SWAPS = (None, True, 0, -1, 10**30, 2.5, math.nan, math.inf, -math.inf, "", "x", [], [1, 2],
         {}, {"x": 1})
# what a text-file mutation puts in place of a token
TOKENS = ("nan", "inf", "-inf", "1e999", "x", "", ",", "\t", "bomb")
# files read line by line; the corpus holds a JSON object per line, the
# others are one JSON document each
LINE_FILES = ("corpus", "embeddings", "synonyms")
# flags of every sample: short, one chain, in this process
CAPS = ["--iterations", "2", "--chains", "1", "--jobs", "1", "--burn-in", "0"]

CONFIGS = {
    "train_config": {"l2": 1.0, "sigma": 0.4, "truncation_threshold": 0.5, "gamma": 1.0},
    "sample_config": {"model": "hddcrp", "alpha_d": 0.5, "alpha_0": 0.1, "concentration": 0.01,
                      "seed": 4, "randomized_scan": True, "map_estimate": True,
                      "uniform_distances": False, "flat_likelihood": False},
    "baseline_config": {"method": "agglomerative", "wd_threshold": 0.4, "cd_threshold": 0.6},
    "score_config": {"setting": "both"},
    "oracle_config": {"model": "hddcrp", "top": 2, "alpha_d": 0.5, "concentration": 0.01},
}
# input file -> the commands that read it
READERS = {
    "corpus": ("train-distance", "sample", "baseline", "score", "oracle-posterior"),
    "gold": ("train-distance", "score"),
    "embeddings": ("train-distance", "sample", "baseline"),
    "synonyms": ("train-distance", "sample", "baseline"),
    "model": ("sample", "baseline", "oracle-posterior"),
    "prediction": ("score",),
    "train_config": ("train-distance",),
    "sample_config": ("sample",),
    "baseline_config": ("baseline",),
    "score_config": ("score",),
    "oracle_config": ("oracle-posterior",),
}


def command(name, paths, out):
    """The argv of one command over the input files at paths."""
    inputs = ["--corpus", paths["corpus"], "--embeddings", paths["embeddings"],
              "--synonyms", paths["synonyms"]]
    argv = {
        "train-distance": ["train-distance", *inputs, "--gold", paths["gold"],
                           "--config", paths["train_config"], "-o", out / "model.json"],
        "sample": ["sample", *inputs, "--distance-model", paths["model"],
                   "--config", paths["sample_config"], *CAPS, "--output-dir", out / "runs"],
        "baseline": ["baseline", *inputs, "--distance-model", paths["model"],
                     "--config", paths["baseline_config"], "-o", out / "baseline.json"],
        "score": ["score", "--corpus", paths["corpus"], "--gold", paths["gold"],
                  "--config", paths["score_config"], paths["prediction"],
                  "-o", out / "score.json"],
        "oracle-posterior": ["oracle-posterior", "--corpus", paths["corpus"],
                             "--distance-model", paths["model"],
                             "--config", paths["oracle_config"], "-o", out / "oracle.json"],
    }[name]
    return [str(a) for a in argv]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """name -> (path, text) of a valid input file of each kind."""
    base = tmp_path_factory.mktemp("valid")
    lines = tiny_corpus_path().read_text(encoding="utf-8").splitlines()
    texts = {
        "corpus": "\n".join(lines[:-1]) + "\n",
        "gold": lines[-1] + "\n",
        "embeddings": "bomb 1.0 0.0 0.2\nblast 0.9 0.1 0.0\ntalk 0.0 1.0 0.5\n",
        "synonyms": "bomb\tblast,explosion\ntalk\tdiscussion\n",
        **{name: json.dumps(obj) for name, obj in CONFIGS.items()},
    }
    paths = {name: base / f"{name}.txt" for name in (*texts, "model", "prediction")}
    for name, text in texts.items():
        paths[name].write_text(text, encoding="utf-8")
    out = base / "out"
    out.mkdir()
    assert main(command("train-distance", paths, out)) == 0
    assert main(command("baseline", {**paths, "model": out / "model.json"}, out)) == 0
    for name, made in (("model", "model.json"), ("prediction", "baseline.json")):
        texts[name] = (out / made).read_text(encoding="utf-8")
        paths[name].write_text(texts[name], encoding="utf-8")
    for name in READERS["corpus"]:
        assert main(command(name, paths, out)) == 0, name
    return {name: (paths[name], texts[name]) for name in paths}


def _nodes(obj, path=()):
    """(path, value) of every node of a JSON document, the root first."""
    yield path, obj
    if isinstance(obj, dict):
        children = obj.items()
    elif isinstance(obj, list):
        children = enumerate(obj)
    else:
        children = ()
    for key, value in children:
        yield from _nodes(value, (*path, key))


def _edit(obj, path, value=None, delete=False):
    """A copy of obj with the node at path set to value, or deleted."""
    if not path:
        return value
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return obj


def _mutate_json(rng, obj):
    """One random mutation of a JSON document: a type swap, a deleted key or
    list item, or a number made non-finite; returned as text."""
    nodes = list(_nodes(obj))
    numbers = [p for p, v in nodes if type(v) in (int, float)]
    op = rng.choice(("swap", "delete", "nonfinite"))
    if op == "nonfinite" and numbers:
        return json.dumps(_edit(obj, rng.choice(numbers), rng.choice(SWAPS[6:9])))
    if op == "delete" and len(nodes) > 1:
        return json.dumps(_edit(obj, rng.choice(nodes[1:])[0], delete=True))
    return json.dumps(_edit(obj, rng.choice(nodes)[0], rng.choice(SWAPS)))


def _mutate_line(rng, line, json_lines):
    """One random mutation of one line of a text file."""
    if json_lines and rng.random() < 0.6:
        return _mutate_json(rng, json.loads(line))
    sep = "\t" if "\t" in line else " "
    tokens = line.split(sep)
    op = rng.choice(("token", "drop token", "truncate"))
    if op == "truncate":
        return line[: rng.randrange(len(line) + 1)]
    k = rng.randrange(len(tokens))
    if op == "drop token":
        del tokens[k]
    else:
        tokens[k] = rng.choice(TOKENS)
    return sep.join(tokens)


def random_case(rng, name, text):
    """Seeded random mutation of the text of input file name, as bytes."""
    roll = rng.random()
    if roll < 0.05:
        return text.encode("utf-8")[: rng.randrange(len(text))] + b"\xff\xfe"
    if roll < 0.15:
        return text.encode("utf-8")[: rng.randrange(len(text))]
    if name not in LINE_FILES:
        return _mutate_json(rng, json.loads(text)).encode("utf-8")
    lines = text.splitlines()
    k = rng.randrange(len(lines))
    if rng.random() < 0.15:
        lines[k:k + 1] = [] if rng.random() < 0.5 else [lines[k], lines[k]]
    else:
        lines[k] = _mutate_line(rng, lines[k], name == "corpus")
    return ("\n".join(lines) + "\n").encode("utf-8")


def type_swap_cases(name, text):
    """Every swap and deletion of each top-level entry of a JSON input."""
    if name in LINE_FILES:
        return []
    obj = json.loads(text)
    out = []
    for key in obj:
        out += [json.dumps(_edit(obj, (key,), value)).encode("utf-8") for value in SWAPS]
        out.append(json.dumps(_edit(obj, (key,), delete=True)).encode("utf-8"))
    return out


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_malformed_inputs_never_exit_one(valid_inputs, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HDDCRP_SEED", raising=False)
    rng = random.Random(SEED)
    paths = {name: path for name, (path, _) in valid_inputs.items()}
    out = tmp_path / "out"
    out.mkdir()
    failures = []
    runs = 0
    for name, (_, text) in valid_inputs.items():
        cases = type_swap_cases(name, text)
        cases += [random_case(rng, name, text) for _ in range(RANDOM_CASES)]
        mutated = tmp_path / f"mutated-{name}.txt"
        for k, data in enumerate(cases):
            mutated.write_bytes(data)
            reader = READERS[name][k % len(READERS[name])]
            code = main(command(reader, {**paths, name: mutated}, out))
            runs += 1
            err = capsys.readouterr().err
            if code not in (0, 2, 3):
                failures.append(f"{reader} on {name} {data!r}: exit {code}: {err}")
    assert not failures, "\n".join(failures)
    assert runs > 300

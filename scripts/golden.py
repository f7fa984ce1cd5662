"""Fixed-seed output digests of the hddcrp command line.

    python3 scripts/golden.py            # compare a fresh run with the digests
    python3 scripts/golden.py --write    # rewrite tests/golden/outputs.json

The commands run in process through `hddcrp.cli.main`, in a temporary
directory, with the package of this tree (src/).  On the bundled synthetic
corpus: train-distance; `sample` for all four models with the trained
distance model (hdp-lex takes none and ignores it), once sequential and once
with --randomized-scan --map-estimate, at seed 3 with 2 chains x 20 sweeps;
both baselines, lemma and agglomerative; and one `score` of every chain and
both baselines.  On the bundled tiny corpus: oracle-posterior
--uniform-distances.  Each output file gets the SHA-256 digest of its
contents less the embedded config, masked by `masked` as
scripts/same_outputs.py masks what it compares.  The digests are recorded
with the Python, numpy and scipy versions that wrote them.  Comparing exits
1 and names each differing file; tests/test_golden.py makes the same check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "outputs.json"

MODELS = ("hddcrp", "ddcrp", "hddcrp-star", "hdp-lex")
SCANS = {"sequential": [], "randomized-map": ["--randomized-scan", "--map-estimate"]}
CHAINS = 2
SAMPLE = ["--seed", "3", "--chains", str(CHAINS), "--iterations", "20"]


def without_config(path):
    """The JSON object of an output file, less its embedded config."""
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    obj.pop("config")
    return obj


def masked(path):
    """The bytes of an output file that a fixed seed fixes: a JSON file less
    its config, a trace file less its first line, which holds the config."""
    path = Path(path)
    if path.suffix == ".csv":
        return path.read_text(encoding="utf-8").split("\n", 1)[1].encode()
    return json.dumps(without_config(path), sort_keys=True).encode()


def versions():
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def run(work):
    """Run the command matrix with outputs under the directory work."""
    from hddcrp import cli, data

    corpus = str(data.synthetic_corpus_path())
    resources = ["--embeddings", str(data.synthetic_embeddings_path()),
                 "--synonyms", str(data.synthetic_synonyms_path())]
    commands = [["train-distance", "--corpus", corpus, *resources, "-o", "distance_model.json"]]
    commands += [
        ["sample", "--corpus", corpus, *resources, "--model", model,
         "--distance-model", "distance_model.json", *SAMPLE, *flags,
         "--output-dir", f"{model}-{scan}"]
        for model in MODELS for scan, flags in SCANS.items()
    ]
    commands += [
        ["baseline", "--corpus", corpus, "--method", "lemma", "-o", "baseline-lemma.json"],
        ["baseline", "--corpus", corpus, *resources, "--method", "agglomerative",
         "--distance-model", "distance_model.json", "-o", "baseline-agglomerative.json"],
    ]
    # relative paths, so that the score report does not name the directory
    chains = [f"{model}-{scan}/chain-{k:02d}.clustering.json"
              for model in MODELS for scan in SCANS for k in range(CHAINS)]
    commands += [
        ["score", "--corpus", corpus, *chains, "baseline-lemma.json",
         "baseline-agglomerative.json", "-o", "score.json"],
        ["oracle-posterior", "--corpus", str(data.tiny_corpus_path()), "--uniform-distances",
         "-o", "oracle.json"],
    ]
    cwd = os.getcwd()
    os.chdir(work)
    try:
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited {code}")
    finally:
        os.chdir(cwd)


def digests(work):
    """Run the command matrix under work and digest every output file."""
    run(work)
    files = sorted(p for p in Path(work).rglob("*") if p.is_file())
    return {p.relative_to(work).as_posix(): hashlib.sha256(masked(p)).hexdigest() for p in files}


def differing(recorded, got):
    """Names of the files whose digests differ, or that only one side has."""
    return sorted(name for name in recorded.keys() | got.keys()
                  if recorded.get(name) != got.get(name))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as work:
        got = digests(work)
    if args.write:
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text(json.dumps({"versions": versions(), "digests": got}, indent=2) + "\n",
                          encoding="utf-8")
        print(f"wrote {len(got)} digests to {GOLDEN}")
        return 0
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    names = differing(recorded["digests"], got)
    for name in names:
        print(f"differs: {name}")
    if recorded["versions"] != versions():
        print(f"digests written with {recorded['versions']}, running {versions()}")
    return 1 if names else 0


if __name__ == "__main__":
    sys.exit(main())

"""Check that two source trees give the same fixed-seed sampler outputs.

    python3 scripts/same_outputs.py ROOT_A ROOT_B

For each tree the script runs that tree's CLI (ROOT/src on PYTHONPATH) on its
bundled synthetic corpus: train-distance, then `sample` for all four models,
once sequential, once with --randomized-scan --map-estimate and once with
--flat-likelihood --uniform-distances --randomized-scan, each with seed 3 and
3 chains x 60 sweeps (36 clusterings).  On a larger corpus from the
perfbench generator of the script's own tree (perfbench/gen.py,
Shape(10, 4, 10) at seed 1: 400 mentions, where a table-model chain holds
dozens of labels and several keys hold more than one, and where trained
priors and the agglomerative baseline keep few of the pairs) it runs
train-distance, then `sample` for all four models, sequential and with
--randomized-scan --map-estimate, with the same seed and sizes (24 more
clusterings, 60 in all), and the agglomerative baseline.  It also runs the
exact enumerator, oracle-posterior --uniform-distances, on the bundled tiny
corpus, at the defaults and at --alpha-d 2 --alpha0 0.5 --concentration
0.3.  On the synthetic corpus it then runs both baselines, lemma and
agglomerative (with the trained model), and scores all 36 chains and both
baselines in one `score` call.  It compares the trained distance models of
both corpora (distance_model.json and distance_model.features.json), every
chain-NN.clustering.json, both oracle-*.json posteriors, all three
baseline-*.json files and score.json on every field except the embedded
config, and the joint-score traces value by value (the config masks, the
four models and the first two scans are scripts/golden.py's).  It prints
whether the distance model, the enumerator output, the baselines and the
score are identical, each clustering that differs, the number of trace files
that differ and the largest relative trace drift, and exits 1 if any of them
but the traces differs.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from gen import Shape, write_inputs  # noqa: E402
from golden import MODELS, masked, without_config  # noqa: E402
from golden import SCANS as GOLDEN_SCANS  # noqa: E402

SCANS = {
    **GOLDEN_SCANS,
    "flat-uniform": ["--flat-likelihood", "--uniform-distances", "--randomized-scan"],
}
SAMPLE = ["--seed", "3", "--chains", "3", "--iterations", "60"]
SCALE_SHAPE = Shape(10, 4, 10)
SCALE_SCANS = ("sequential", "randomized-map")
ORACLE = {
    "defaults": [],
    "tuned": ["--alpha-d", "2", "--alpha0", "0.5", "--concentration", "0.3"],
}


def run_matrix(root, work):
    """Run the command matrix with the CLI of root, writing under work."""
    root = Path(root).resolve()
    corpus = root / "src" / "hddcrp" / "data" / "synthetic_corpus.jsonl"
    resources = [
        "--embeddings", str(corpus.with_name("synthetic_embeddings.txt")),
        "--synonyms", str(corpus.with_name("synthetic_synonyms.txt")),
    ]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def cli(*args):
        cmd = [sys.executable, "-m", "hddcrp.cli", *args]
        done = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{root}: {' '.join(args[:1])} exited {done.returncode}\n{done.stderr}")

    def train_and_sample(corpus, resources, out, runs):
        """Train a distance model into out, sample each (model, scan) of runs
        with it into out/MODEL-SCAN, and return the model's path."""
        model = out / "distance_model.json"
        cli("train-distance", "--corpus", str(corpus), *resources, "-o", str(model))
        for name, scan in runs:
            cli("sample", "--corpus", str(corpus), *resources, "--model", name,
                "--distance-model", str(model), *SAMPLE, *SCANS[scan],
                "--output-dir", str(out / f"{name}-{scan}"))
        return model

    model = train_and_sample(corpus, resources, work, [(m, s) for m in MODELS for s in SCANS])
    # scale/ sits one level down, so the synthetic corpus's score skips its chains
    scale = write_inputs(SCALE_SHAPE, 1, work / "scale")
    scale_resources = ["--embeddings", str(scale.embeddings), "--synonyms", str(scale.synonyms)]
    scale_model = train_and_sample(
        scale.corpus, scale_resources, work / "scale",
        [(m, s) for m in MODELS for s in SCALE_SCANS],
    )
    cli("baseline", "--corpus", str(scale.corpus), *scale_resources, "--method", "agglomerative",
        "--distance-model", str(scale_model), "-o", "scale/baseline-agglomerative.json")
    tiny = corpus.with_name("tiny_corpus.jsonl")
    for name, flags in ORACLE.items():
        cli("oracle-posterior", "--corpus", str(tiny), "--uniform-distances", *flags,
            "-o", str(work / f"oracle-{name}.json"))
    baselines = ["baseline-lemma.json", "baseline-agglomerative.json"]
    cli("baseline", "--corpus", str(corpus), "--method", "lemma", "-o", baselines[0])
    cli("baseline", "--corpus", str(corpus), *resources, "--method", "agglomerative",
        "--distance-model", str(model), "-o", baselines[1])
    # relative paths, so that the report's list of predictions is the same for both trees
    chains = sorted(str(p.relative_to(work)) for p in work.glob("*/chain-*.clustering.json"))
    cli("score", "--corpus", str(corpus), *chains, *baselines, "-o", "score.json")


def trace(path):
    lines = masked(path).decode().splitlines()[1:]  # header
    return [float(line.split(",")[1]) for line in lines]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root_a")
    parser.add_argument("root_b")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        work_a, work_b = Path(tmp, "a"), Path(tmp, "b")
        for root, work in ((args.root_a, work_a), (args.root_b, work_b)):
            work.mkdir()
            run_matrix(root, work)
        models = sorted(work_a.rglob("distance_model*.json"))
        same_model = all(
            without_config(p) == without_config(work_b / p.relative_to(work_a)) for p in models
        )
        oracles = sorted(work_a.glob("oracle-*.json"))
        same_oracle = all(without_config(p) == without_config(work_b / p.name) for p in oracles)
        baselines = sorted(work_a.rglob("baseline-*.json"))
        same_baselines = all(
            without_config(p) == without_config(work_b / p.relative_to(work_a))
            for p in baselines
        )
        same_score = without_config(work_a / "score.json") == without_config(work_b / "score.json")
        clusterings = sorted(work_a.rglob("chain-*.clustering.json"))
        differing = [
            p.relative_to(work_a) for p in clusterings
            if without_config(p) != without_config(work_b / p.relative_to(work_a))
        ]
        traces = sorted(work_a.rglob("chain-*.trace.csv"))
        drifts = []
        for p in traces:
            a, b = trace(p), trace(work_b / p.relative_to(work_a))
            if len(a) != len(b):
                sys.exit(f"{p.relative_to(work_a)}: traces of different lengths")
            drifts.append(max(abs(x - y) / max(abs(x), abs(y), 1e-300) for x, y in zip(a, b)))
    print(f"distance model {'identical' if same_model else 'differs'} ({len(models)} files)")
    print(f"enumerator output {'identical' if same_oracle else 'differs'} "
          f"({len(oracles)} files)")
    print(f"baselines {'identical' if same_baselines else 'differ'} ({len(baselines)} files)")
    print(f"score {'identical' if same_score else 'differs'}")
    for p in differing:
        print(f"clustering differs: {p}")
    print(f"{len(clusterings) - len(differing)} of {len(clusterings)} clusterings identical")
    print(f"{sum(d > 0 for d in drifts)} of {len(traces)} trace files differ; "
          f"largest relative drift {max(drifts):.3g}")
    same = same_model and same_oracle and same_baselines and same_score
    return 1 if differing or not same else 0


if __name__ == "__main__":
    sys.exit(main())

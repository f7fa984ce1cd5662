"""Time input loads, prior builds and Gibbs sweeps as the corpus grows.

    python3 scripts/bench_sweeps.py [--sizes 1000 2000] [-o BENCH_sweeps.json]

Each size n gets a corpus from the perfbench generator (perfbench/gen.py)
with Shape(n // 40, 4, 10): 4 documents of 10 mentions per topic, seed 1.
load_s is the median of 5 loads of the written inputs, each load_corpus
plus LexicalResources.load, the fixed cost of a command.  features_s is
the median of 3 builds of the training pairs' feature matrix, each a
PairFeatures construction plus its gather of the pairs.  train_s is the
median of 3 fits of a pairwise distance model on the corpus, each a train
call, and agglomerative_s the median of 3 calls of the agglomerative
baseline with the model.  Then, for each model, the script times
build_priors (priors_s), which includes the log forms Priors builds.  For
the models with trained priors it builds them once more, untimed, and
counts the pairs that the candidate walk scored and kept (pairs_scored,
pairs_kept; null for hdp_lex, whose priors are uniform).  It draws a chain
state with init_state, runs one warm-up sweep and times the next 20 sweeps
of the chain; it reports their median and quartiles in ms.  It also
reports lone_share, the share of customer and of table-link supports that
hold only the self candidate (null for a model without table links): a
move over such a support proposes nothing.  For hddcrp_star and hdp_lex it
then runs one more, untimed sweep and reports the median number of live
labels and of keys at its label draws (draw_labels, draw_keys; null for
the link models), the L and K that a draw's pass runs over.

Last, it writes a copy of the corpus with one shared lemma, "say",
appended to every mention's context_lemmas, as news text shares common
words, and records overlap on that copy with the model trained on the
plain corpus: the hddcrp priors_s, agglomerative_s (median of 3 calls) and
the hddcrp walk's pairs_scored and pairs_kept.

The speed of a shared CPU drifts too much for wall or CPU time to compare
two runs.  So the script, when run, pins itself to one CPU and one BLAS
thread before numpy and scipy load (importing it pins nothing), and times
loads, features, training, agglomerative calls and prior builds in
reference seconds, and sweeps in reference ms, of perfbench's calibrated
clock (perfbench/clock.py).  Figures are comparable only between runs on
the same machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from clock import CalibratedClock, pin_to_one_cpu  # noqa: E402

if __name__ == "__main__":
    # OpenBLAS reads its thread count and starts its threads, on the CPUs the
    # process may use, when numpy loads
    pin_to_one_cpu()

import numpy as np  # noqa: E402
# the program imports these on first use; importing them here keeps that
# import out of the first size's train_s
import scipy.optimize  # noqa: E402, F401
import scipy.special  # noqa: E402, F401

from gen import Shape, write_inputs  # noqa: E402
from hddcrp.baselines import agglomerative  # noqa: E402
from hddcrp.corpus import LexicalResources, load_corpus  # noqa: E402
from hddcrp.features import FeatureExtractor, PairFeatures  # noqa: E402
from hddcrp.pairwise import PairwiseModel, build_training_pairs, pair_features, train  # noqa: E402
from hddcrp.sampling import MODELS, SamplerConfig, build_priors, init_state  # noqa: E402

SEED = 1
LOADS = 5
FEATURES = 3
CALLS = 3  # train and agglomerative calls
WARMUP = 1
SHARED_LEMMA = "say"
REPEATS = 20


def draw_sizes(state, rng):
    """Medians of the live labels and of the keys at the label draws of one
    sweep of a table-model state, which the sweep leaves in its new state."""
    labels = state.labels
    draw = labels.draw
    sizes = []

    def counting_draw(*args):
        sizes.append((len(labels.key_of), len(labels.keys)))
        return draw(*args)

    labels.draw = counting_draw
    state.sweep(rng)
    del labels.draw
    return [statistics.median(column) for column in zip(*sizes)]


def timed(clock, calls, fn, *args):
    """The last of calls calls of fn(*args), and the median of their
    reference seconds."""
    times = []
    for _ in range(calls):
        start = clock.now()
        result = fn(*args)
        times.append(clock.reference_seconds(start, clock.now())[0])
    return result, statistics.median(times)


def load(inputs):
    """The fixed cost of a command: its corpus and lexical resources."""
    return load_corpus(inputs.corpus), LexicalResources.load(inputs.embeddings, inputs.synonyms)


def overlap_copy(path, out):
    """Write to out a copy of the corpus file path with SHARED_LEMMA
    appended to every mention's context_lemmas."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        doc = json.loads(line)
        for mention in doc.get("mentions", ()):
            mention["context_lemmas"].append(SHARED_LEMMA)
        lines.append(json.dumps(doc) + "\n")
    out.write_text("".join(lines), encoding="utf-8")
    return out


def walk_counts(corpus, config, pairwise, resources):
    """The pairs that build_priors' candidate walk scores and keeps, from one
    more build with counting wrappers in place."""
    counts = {"pairs_scored": 0, "pairs_kept": 0}
    candidates, walk = PairFeatures.candidates, PairwiseModel.scored_pairs

    def counting_candidates(self, *args):
        found = candidates(self, *args)
        counts["pairs_scored"] += len(found[0])
        return found

    def counting_walk(self, *args):
        for i, j, sim in walk(self, *args):
            counts["pairs_kept"] += len(i)
            yield i, j, sim

    PairFeatures.candidates, PairwiseModel.scored_pairs = counting_candidates, counting_walk
    try:
        build_priors(corpus, config, pairwise, resources)
    finally:
        PairFeatures.candidates, PairwiseModel.scored_pairs = candidates, walk
    return counts


def bench_size(n):
    shape = Shape(max(1, n // 40), 4, 10)
    with tempfile.TemporaryDirectory() as tmp, CalibratedClock() as clock:
        inputs = write_inputs(shape, SEED, tmp)
        time.sleep(0.05)  # a few probe slices before the first span
        (corpus, resources), load_s = timed(clock, LOADS, load, inputs)
        extractor = FeatureExtractor.from_corpus(corpus)
        pairs = build_training_pairs(corpus)
        _, features_s = timed(clock, FEATURES, pair_features, corpus, resources, extractor, pairs)
        pairwise, train_s = timed(clock, CALLS, train, corpus, resources)
        _, agglomerative_s = timed(clock, CALLS, agglomerative, corpus, pairwise, resources)
        out = {"n": shape.n_mentions, "topics": shape.topics, "load_s": load_s,
               "features_s": features_s, "train_s": train_s,
               "agglomerative_s": agglomerative_s, "models": {}}
        print(f"n={shape.n_mentions}: load {out['load_s']:.4f} s, "
              f"features {out['features_s']:.4f} s, "
              f"agglomerative {out['agglomerative_s']:.3f} s", flush=True)
        for model in MODELS:
            config = SamplerConfig(model=model, seed=SEED)
            priors, priors_s = timed(clock, 1, build_priors, corpus, config, pairwise, resources)
            lone_share = {
                level: None if supports is None
                else sum(len(c) == 1 for c in supports) / len(supports)
                for level, supports in (("customer", priors.customer), ("table", priors.table))
            }
            counts = {"pairs_scored": None, "pairs_kept": None}
            if model != "hdp_lex":
                counts = walk_counts(corpus, config, pairwise, resources)
            rng = np.random.default_rng(SEED)
            state = init_state(corpus, config, rng, priors=priors)
            for _ in range(WARMUP):
                state.sweep(rng)
            sweeps_ms = [1000 * timed(clock, 1, state.sweep, rng)[1] for _ in range(REPEATS)]
            q1, median, q3 = statistics.quantiles(sweeps_ms, n=4)
            draw_labels = draw_keys = None
            if hasattr(state, "labels"):
                draw_labels, draw_keys = draw_sizes(state, rng)
            out["models"][model] = {
                "priors_s": priors_s,
                **counts,
                "lone_share": lone_share,
                "sweep_ms": median,
                "sweep_ms_quartiles": [q1, q3],
                "sweeps_ms": sweeps_ms,
                "draw_labels": draw_labels,
                "draw_keys": draw_keys,
            }
            print(f"n={shape.n_mentions} {model}: priors {priors_s:.3f} s, "
                  f"sweep {median:.1f} ms [{q1:.1f}, {q3:.1f}]", flush=True)
        overlap = load_corpus(overlap_copy(inputs.corpus, Path(tmp) / "overlap.jsonl"))
        config = SamplerConfig(model="hddcrp", seed=SEED)
        _, priors_s = timed(clock, 1, build_priors, overlap, config, pairwise, resources)
        _, agglomerative_s = timed(clock, CALLS, agglomerative, overlap, pairwise, resources)
        out["overlap"] = {"priors_s": priors_s, "agglomerative_s": agglomerative_s,
                          **walk_counts(overlap, config, pairwise, resources)}
        print(f"n={shape.n_mentions} overlap: priors {priors_s:.3f} s, "
              f"agglomerative {agglomerative_s:.3f} s, {out['overlap']['pairs_kept']} of "
              f"{out['overlap']['pairs_scored']} pairs kept", flush=True)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1000, 2000])
    parser.add_argument("-o", "--output", default="BENCH_sweeps.json")
    args = parser.parse_args(argv)
    result = {
        "shape": "Shape(n // 40, 4, 10)",
        "seed": SEED,
        "warmup": WARMUP,
        "repeats": REPEATS,
        "loads": LOADS,
        "features": FEATURES,
        "clock": "perfbench CalibratedClock: reference s for load_s, features_s, train_s, "
                 "agglomerative_s and priors_s, reference ms for sweeps",
        "python": sys.version.split()[0],
        "sizes": [bench_size(n) for n in args.sizes],
    }
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()

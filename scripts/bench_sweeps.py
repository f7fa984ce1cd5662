"""Time the prior build and one Gibbs sweep per model as the corpus grows.

    python3 scripts/bench_sweeps.py [--sizes 1000 2000] [-o BENCH_sweeps.json]

Each size n gets a corpus from the perfbench generator (perfbench/gen.py)
with Shape(n // 40, 4, 10): 4 documents of 10 mentions per topic, seed 1.  A
pairwise distance model is trained on it once.  Then, for each model, the
script times build_priors, draws a chain state with init_state, runs one
warm-up sweep and times the next 20 sweeps of the chain; it reports their
median and quartiles in ms.  The speed of a shared CPU drifts too much for
wall or CPU time to compare two runs, so the process pins itself to one CPU
and times sweeps in reference ms of perfbench's calibrated clock
(perfbench/clock.py).  Figures are comparable only between runs on the same
machine.
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

import numpy as np  # noqa: E402

from clock import CalibratedClock, pin_to_one_cpu  # noqa: E402
from gen import Shape, write_inputs  # noqa: E402
from hddcrp.corpus import LexicalResources, load_corpus  # noqa: E402
from hddcrp.pairwise import train  # noqa: E402
from hddcrp.sampling import MODELS, SamplerConfig, build_priors, init_state  # noqa: E402

SEED = 1
WARMUP = 1
REPEATS = 20


def bench_size(n):
    shape = Shape(max(1, n // 40), 4, 10)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(shape, SEED, tmp)
        corpus = load_corpus(inputs.corpus)
        resources = LexicalResources.load(inputs.embeddings, inputs.synonyms)
    start = time.perf_counter()
    pairwise = train(corpus, resources)
    train_s = time.perf_counter() - start
    out = {"n": shape.n_mentions, "topics": shape.topics, "train_s": train_s, "models": {}}
    for model in MODELS:
        config = SamplerConfig(model=model, seed=SEED)
        start = time.perf_counter()
        priors = build_priors(corpus, config, pairwise, resources)
        priors_s = time.perf_counter() - start
        rng = np.random.default_rng(SEED)
        state = init_state(corpus, config, rng, priors=priors)
        for _ in range(WARMUP):
            state.sweep(rng)
        sweeps_ms = []
        with CalibratedClock() as clock:
            time.sleep(0.05)  # a few probe slices before the first sweep
            for _ in range(REPEATS):
                start = clock.now()
                state.sweep(rng)
                sweeps_ms.append(1000 * clock.reference_seconds(start, clock.now())[0])
        q1, median, q3 = statistics.quantiles(sweeps_ms, n=4)
        out["models"][model] = {
            "priors_s": priors_s,
            "sweep_ms": median,
            "sweep_ms_quartiles": [q1, q3],
            "sweeps_ms": sweeps_ms,
        }
        print(f"n={shape.n_mentions} {model}: priors {priors_s:.3f} s, "
              f"sweep {median:.1f} ms [{q1:.1f}, {q3:.1f}]", flush=True)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1000, 2000])
    parser.add_argument("-o", "--output", default="BENCH_sweeps.json")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    result = {
        "shape": "Shape(n // 40, 4, 10)",
        "seed": SEED,
        "warmup": WARMUP,
        "repeats": REPEATS,
        "clock": "perfbench CalibratedClock, reference ms",
        "python": sys.version.split()[0],
        "sizes": [bench_size(n) for n in args.sizes],
    }
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()

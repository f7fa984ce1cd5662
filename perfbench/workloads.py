"""The three workloads: input shape and the `hddcrp` command sequence of each.

- hddcrp-topics: the paper's model on ECB+-shaped topics.  Pair distances are
  busy (training pairs, within-document and table-link priors), but the
  HddcrpState sweeps do most of the work.
- ddcrp-pairs: more documents per topic and few sweeps.  The pair-distance
  layer does most of the work: labelled training pairs, all-pairs flat
  priors scored in both directions, and agglomerative cluster-pair maxima.
- hdp-lex-tables: no distance model at all; many TableCrpState sweeps with a
  randomized scan and MAP clustering, the paths the other two skip.

All chains run sequentially (--jobs 1): parallel chains cannot be timed
steadily on two shared CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import Shape


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    model: str  # the `sample --model` value
    chains: int
    iterations: int
    baseline: str  # the `baseline --method` value
    steps: tuple  # order of the commands before the two `score` runs
    sample_flags: tuple = ()

    @property
    def uses_distance(self):
        return self.model != "hdp-lex"

    def chain_stems(self, out):
        return [f"{out}/chains/chain-{k:02d}" for k in range(self.chains)]

    def commands(self, inputs, out, seed):
        """(label, argv) pairs of one round, in order."""
        corpus = ["--corpus", str(inputs.corpus)]
        resources = ["--embeddings", str(inputs.embeddings), "--synonyms", str(inputs.synonyms)]
        distance = ["--distance-model", f"{out}/distance.json", *resources]
        argv = {}
        argv["train-distance"] = ["train-distance", *corpus, *resources,
                                  "-o", f"{out}/distance.json"]
        argv["sample"] = [
            "sample", *corpus, "--model", self.model,
            *(distance if self.uses_distance else []),
            "--iterations", str(self.iterations), "--chains", str(self.chains),
            "--seed", str(seed), "--jobs", "1", *self.sample_flags,
            "--output-dir", f"{out}/chains",
        ]
        argv["baseline"] = [
            "baseline", *corpus, "--method", self.baseline,
            *(distance if self.baseline == "agglomerative" else []),
            "-o", f"{out}/baseline.clustering.json",
        ]
        steps = [(name, argv[name]) for name in self.steps]
        steps.append(("score", [
            "score", *corpus, *(f"{s}.clustering.json" for s in self.chain_stems(out)),
            "-o", f"{out}/score-model.json",
        ]))
        steps.append(("score", [
            "score", *corpus, f"{out}/baseline.clustering.json",
            "-o", f"{out}/score-baseline.json",
        ]))
        return steps


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hddcrp-topics", Shape(topics=5, docs_per_topic=4, mentions_per_doc=10),
                 model="hddcrp", chains=3, iterations=20, baseline="lemma",
                 steps=("train-distance", "sample", "baseline")),
        Workload("ddcrp-pairs", Shape(topics=3, docs_per_topic=7, mentions_per_doc=10),
                 model="ddcrp", chains=2, iterations=6, baseline="agglomerative",
                 steps=("train-distance", "baseline", "sample")),
        Workload("hdp-lex-tables", Shape(topics=6, docs_per_topic=3, mentions_per_doc=8),
                 model="hdp-lex", chains=8, iterations=5, baseline="lemma",
                 steps=("sample", "baseline"),
                 sample_flags=("--randomized-scan", "--map-estimate")),
    )
}
